//! Top-k query processing (Algorithm 2).
//!
//! A best-first traversal over the index graph: a score-ordered priority
//! queue holds *free* nodes (∀-dominance-free and ∃-dominance-free,
//! Theorem 3); popping a node relaxes its out-edges, possibly freeing —
//! and scoring — further nodes. The paper's cost metric (Definition 9) is
//! exactly the number of scoring calls, tracked in [`TopkResult::cost`].
//!
//! One [`TopkCursor`] runs every traversal, and every top-k answers in
//! one type, [`TopkResult`], whose `truncated` field marks an answer a
//! [`QueryBudget`] cut short. [`DualLayerIndex::topk`] is
//! [`DualLayerIndex::topk_guarded`] under an unlimited budget; a caller
//! that streams answers constructs a cursor with [`TopkCursor::new`].

use crate::index::{DualLayerIndex, NodeId};
use drtopk_common::{Cost, TupleId, Weights};
use drtopk_obs::{QueryCounters, QuerySpan};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-query execution limits, checked cooperatively at pop granularity.
///
/// A budget bounds what one query may consume on a serving path: a
/// wall-clock **deadline**, a **cost cap** on tuples evaluated (the
/// paper's Definition 9 metric, so the cap is workload-meaningful), and a
/// shared **cancellation flag** an operator or batch coordinator can trip
/// from another thread. All three are optional; [`QueryBudget::unlimited`]
/// never trips.
///
/// Enforcement is cooperative: the traversal checks the budget once per
/// queue pop, so a tripped budget stops within one edge-relaxation of the
/// violation (the cost cap can overshoot by at most one pop's fan-out).
/// When a budget trips, the query returns its best-so-far answer prefix —
/// pops happen in ascending score order, so the prefix is exactly the true
/// top-m for some m ≤ k — with a [`TopkResult::truncated`] marker naming
/// the tripped limit.
#[derive(Debug, Clone, Default)]
pub struct QueryBudget {
    deadline: Option<Instant>,
    max_cost: Option<u64>,
    cancel: Option<Arc<AtomicBool>>,
}

/// The traversal checks the wall clock only every this many pops: a pop
/// costs tens of nanoseconds and `Instant::now` is comparable, so a
/// per-pop clock read would dominate the loop it guards.
const DEADLINE_CHECK_PERIOD: u64 = 16;

impl QueryBudget {
    /// A budget that never trips (equivalent to `Default`).
    pub fn unlimited() -> Self {
        QueryBudget::default()
    }

    /// Trips once the wall clock reaches `deadline`.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Trips `timeout` from now.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Trips once more than `max_cost` tuples (real + pseudo, Definition
    /// 9) have been evaluated.
    pub fn with_max_cost(mut self, max_cost: u64) -> Self {
        self.max_cost = Some(max_cost);
        self
    }

    /// Trips as soon as `flag` reads `true`. The flag is shared: one flag
    /// can cancel a whole batch cooperatively.
    pub fn with_cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Whether no limit is configured (the no-op fast path).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_cost.is_none() && self.cancel.is_none()
    }

    /// The configured wall-clock deadline, if any. A router carving
    /// per-shard budgets reads this to tighten — never loosen — the
    /// request's own deadline for each sub-probe.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The configured Definition-9 cost cap, if any.
    pub fn max_cost(&self) -> Option<u64> {
        self.max_cost
    }

    /// The shared cancellation flag, if any. Cloning the `Arc` lets a
    /// derived (carved) budget trip together with its parent request.
    pub fn cancel_flag(&self) -> Option<Arc<AtomicBool>> {
        self.cancel.clone()
    }

    /// Checks every configured limit; `pops` is the number of pops
    /// completed so far (used to pace the clock reads).
    pub(crate) fn tripped(&self, cost: &Cost, pops: u64) -> Option<TruncateReason> {
        if let Some(flag) = &self.cancel {
            if flag.load(AtomicOrdering::Relaxed) {
                return Some(TruncateReason::Cancelled);
            }
        }
        if let Some(cap) = self.max_cost {
            if cost.total() > cap {
                return Some(TruncateReason::CostExceeded);
            }
        }
        if let Some(deadline) = self.deadline {
            if pops.is_multiple_of(DEADLINE_CHECK_PERIOD) && Instant::now() >= deadline {
                return Some(TruncateReason::Deadline);
            }
        }
        None
    }
}

/// Why a guarded query stopped before producing `k` answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncateReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The Definition-9 cost cap was exceeded.
    CostExceeded,
    /// The shared cancellation flag was tripped.
    Cancelled,
}

impl std::fmt::Display for TruncateReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TruncateReason::Deadline => write!(f, "deadline exceeded"),
            TruncateReason::CostExceeded => write!(f, "cost cap exceeded"),
            TruncateReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Result of one top-k query: the answer, what it cost, and whether a
/// budget cut it short. `Id` is [`TupleId`] for a static index and
/// [`Handle`](crate::Handle) for a dynamic one.
///
/// `ids` is always a correct prefix of the exact answer: when `truncated`
/// is `None` it is the full top-k; when a budget tripped it is the true
/// top-m for the m answers found before the trip, in the same order a
/// completed query would return them.
#[derive(Debug, Clone, PartialEq)]
pub struct TopkResult<Id = TupleId> {
    /// Answer ids, ascending by `(score, id)`.
    pub ids: Vec<Id>,
    /// Tuples (and pseudo-tuples) scored while answering (Definition 9).
    pub cost: Cost,
    /// `None` when the query completed; otherwise the tripped limit.
    pub truncated: Option<TruncateReason>,
}

impl<Id> TopkResult<Id> {
    /// Whether the full top-k was produced.
    pub fn is_complete(&self) -> bool {
        self.truncated.is_none()
    }

    /// A result no budget cut short.
    pub(crate) fn complete(ids: Vec<Id>, cost: Cost) -> Self {
        TopkResult {
            ids,
            cost,
            truncated: None,
        }
    }
}

/// One step of a traced query: the popped node and the queue/answer state
/// after its edges were relaxed. Used to pin the paper's Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStep {
    /// The node removed from the queue this step.
    pub popped: NodeId,
    /// Queue contents after the step, in pop order.
    pub queue_after: Vec<NodeId>,
    /// Accumulated answer list after the step.
    pub answers_after: Vec<TupleId>,
}

/// Full trace of a query run.
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    /// Nodes seeded into the queue before the first pop.
    pub seeds: Vec<NodeId>,
    /// One entry per pop, in traversal order.
    pub steps: Vec<TraceStep>,
}

/// Min-first heap entry: score ascending, pseudo-tuples before real tuples
/// on ties (a pseudo min-corner can tie its sole cluster member and must
/// pop first), then *original* node id ascending — matching the paper's id
/// tie-break. The traversal runs over internal (traversal-ordered) ids, but
/// the tie-break uses `orig` so the pop sequence is independent of the
/// internal renumbering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Entry {
    pub(crate) score: f64,
    pub(crate) real: bool,
    /// Internal (traversal-ordered) node id — indexes scratch and adjacency.
    pub(crate) node: NodeId,
    /// Original public node id — answer value and deterministic tie-break.
    pub(crate) orig: NodeId,
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the minimum first.
        other
            .score
            .partial_cmp(&self.score)
            .expect("scores are finite")
            .then_with(|| other.real.cmp(&self.real))
            .then_with(|| other.orig.cmp(&self.orig))
    }
}

/// Reusable per-query working memory. One scratch serves any number of
/// sequential queries against the index it was created for. Every index
/// keeps a pool of them, so its own entry points reuse scratch across
/// calls; a caller that streams on a scratch of its own
/// ([`TopkCursor::new`]) allocates one with [`QueryScratch::for_index`].
///
/// Per-node state (`remaining`, `eblocked`, `enqueued`, `chain_wait`) is
/// *epoch-versioned*: each node carries a stamp, and state is lazily
/// re-initialized from the index the first time a query touches the node.
/// [`QueryScratch::reset`] therefore costs O(1) — it bumps the epoch — and
/// a query's setup cost is O(nodes touched), not O(n).
#[derive(Debug, Clone)]
pub struct QueryScratch {
    /// Current query epoch; `stamp[i] == epoch` means node `i`'s per-node
    /// state is valid for this query.
    epoch: u32,
    stamp: Vec<u32>,
    remaining: Vec<u32>,
    eblocked: Vec<bool>,
    enqueued: Vec<bool>,
    chain_wait: Vec<bool>,
    heap: BinaryHeap<Entry>,
    /// Nodes freed since the last flush, awaiting batch scoring.
    freed: Vec<NodeId>,
    /// Kernel output buffer, parallel to `freed` during a flush.
    scores: Vec<f64>,
    /// Distinct nodes touched (lazily initialized) this query.
    touched: u64,
    /// Plain-integer observability counters, flushed to the global
    /// [`drtopk_obs`] registry once per query (zero-sized when the `obs`
    /// feature is off).
    counters: QueryCounters,
}

impl QueryScratch {
    /// Allocates scratch sized for `idx`: every per-node vector is sized
    /// to the full node count up front, so no query ever reallocates.
    pub fn for_index(idx: &DualLayerIndex) -> Self {
        let total = idx.total_nodes();
        QueryScratch {
            epoch: 0,
            stamp: vec![0; total],
            remaining: vec![0; total],
            eblocked: vec![false; total],
            enqueued: vec![false; total],
            chain_wait: vec![false; total],
            heap: BinaryHeap::with_capacity(total),
            freed: Vec::with_capacity(total),
            scores: Vec::with_capacity(total),
            touched: 0,
            counters: QueryCounters::new(),
        }
    }

    /// Prepares the scratch for a fresh query against `idx` in O(1):
    /// clears the (already-drained) heap and buffers and advances the
    /// epoch, invalidating every node's stamped state at once. Public so
    /// benchmarks can time the reset separately from the traversal; every
    /// query entry point calls it implicitly.
    pub fn reset(&mut self, idx: &DualLayerIndex) {
        let total = idx.total_nodes();
        if self.stamp.len() != total {
            // Scratch built for a different index size: rebind.
            *self = QueryScratch::for_index(idx);
        }
        self.heap.clear();
        self.freed.clear();
        self.counters.clear();
        self.touched = 0;
        if self.epoch == u32::MAX {
            // Epoch wraparound (once per 2^32 queries): hard-clear stamps.
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Lazily initializes node `i`'s per-query state on first touch.
    #[inline]
    fn touch(&mut self, idx: &DualLayerIndex, i: usize) {
        if self.stamp[i] != self.epoch {
            self.stamp[i] = self.epoch;
            self.remaining[i] = idx.forall_indeg[i];
            self.eblocked[i] = idx.exists_indeg[i] > 0;
            self.enqueued[i] = false;
            self.chain_wait[i] = idx.chain_pos_of.get(i).is_some_and(|&p| p != u32::MAX);
            self.touched += 1;
        }
    }

    /// Marks a node as freed (deduplicated, cost-ticked); it is scored and
    /// pushed by the next [`QueryScratch::flush_freed`].
    fn mark_freed(&mut self, idx: &DualLayerIndex, node: NodeId, cost: &mut Cost) {
        self.touch(idx, node as usize);
        if self.enqueued[node as usize] {
            return;
        }
        self.enqueued[node as usize] = true;
        if idx.is_real(node) {
            cost.tick();
        } else {
            cost.tick_pseudo();
        }
        self.freed.push(node);
    }

    /// Scores all marked nodes in one columnar kernel call and pushes them
    /// onto the queue. The kernel's scores are bit-identical to
    /// [`Weights::score`], so heap ordering is unchanged versus per-node
    /// scoring.
    fn flush_freed(&mut self, idx: &DualLayerIndex, w: &Weights) {
        if self.freed.is_empty() {
            return;
        }
        self.counters.heap_pushed(self.freed.len() as u64);
        self.counters.kernel_block(self.freed.len() as u64);
        idx.columns.score_block(w, &self.freed, &mut self.scores);
        for i in 0..self.freed.len() {
            let node = self.freed[i];
            self.heap.push(Entry {
                score: self.scores[i],
                real: idx.is_real(node),
                node,
                orig: idx.node_orig[node as usize],
            });
        }
        self.freed.clear();
    }

    /// Records the touched-node count and flushes the per-query counter
    /// block to the global registry.
    fn flush_counters(&mut self) {
        self.counters.scratch_touched(self.touched);
        self.counters.flush();
    }
}

/// Idle [`QueryScratch`]es of one index: every traversal of the index
/// draws its scratch from here. A query takes one (or allocates one when
/// none is idle) and puts it back when it finishes, so the pool holds at
/// most one scratch per caller that ever queried concurrently. The lock
/// is held only to take or put, never across a traversal; a query that
/// panics drops the scratch it holds. A cloned index starts with an
/// empty pool.
#[derive(Debug, Default)]
pub(crate) struct ScratchPool(Mutex<Vec<QueryScratch>>);

impl Clone for ScratchPool {
    fn clone(&self) -> Self {
        ScratchPool::default()
    }
}

impl DualLayerIndex {
    /// An idle scratch from this index's pool, or a new one.
    pub(crate) fn take_scratch(&self) -> QueryScratch {
        let idle = self.pool.0.lock().unwrap_or_else(|e| e.into_inner()).pop();
        idle.unwrap_or_else(|| QueryScratch::for_index(self))
    }

    /// Returns a scratch to the pool once the query using it finished. A
    /// query that panicked drops its scratch instead.
    pub(crate) fn put_scratch(&self, scratch: QueryScratch) {
        let mut idle = self.pool.0.lock().unwrap_or_else(|e| e.into_inner());
        idle.push(scratch);
    }

    /// Runs `f` on a scratch from the pool and puts it back; if `f`
    /// panics, the scratch unwinds with it.
    pub(crate) fn pooled<R>(&self, f: impl FnOnce(&mut QueryScratch) -> R) -> R {
        let mut scratch = self.take_scratch();
        let out = f(&mut scratch);
        self.put_scratch(scratch);
        out
    }

    /// Answers a top-k query (Definition 1): the `k` tuples with the
    /// smallest scores under `w`, ties broken by tuple id.
    ///
    /// # Examples
    ///
    /// ```
    /// use drtopk_common::{Distribution, Weights, WorkloadSpec};
    /// use drtopk_core::{DlOptions, DualLayerIndex};
    ///
    /// let rel = WorkloadSpec::new(Distribution::Independent, 3, 500, 7).generate();
    /// let idx = DualLayerIndex::build(&rel, DlOptions::default());
    /// let res = idx.topk(&Weights::uniform(3), 10);
    /// assert_eq!(res.ids.len(), 10);
    /// // Selective access: far fewer tuples scored than the relation holds.
    /// assert!(res.cost.total() < 500);
    /// ```
    ///
    /// # Panics
    /// Panics if `w`'s dimensionality differs from the index's.
    pub fn topk(&self, w: &Weights, k: usize) -> TopkResult {
        self.topk_guarded(w, k, &QueryBudget::unlimited())
    }

    /// Like [`DualLayerIndex::topk`], on the caller's scratch instead of
    /// one from the index's pool.
    pub fn topk_with_scratch(
        &self,
        w: &Weights,
        k: usize,
        scratch: &mut QueryScratch,
    ) -> TopkResult {
        self.topk_guarded_with_scratch(w, k, &QueryBudget::unlimited(), scratch)
    }

    /// Threshold query: every tuple with score ≤ `bound`, ascending. Uses
    /// the same selective traversal; cost is proportional to the answer
    /// size, not the relation size.
    ///
    /// # Panics
    /// Panics if `w`'s dimensionality differs from the index's, or if
    /// `bound` is NaN.
    pub fn range_by_score(&self, w: &Weights, bound: f64) -> TopkResult {
        assert!(!bound.is_nan(), "score bound must not be NaN");
        self.pooled(|scratch| {
            let mut cursor = TopkCursor::new(self, w, scratch, None);
            let mut ids = Vec::new();
            // Stop on the raw head: a pseudo-tuple above the bound stays
            // unpopped, so its cluster is never scored.
            while ids.len() < self.len() && cursor.head().is_some_and(|e| e.score <= bound) {
                if let Some(e) = cursor.step().filter(|e| e.real) {
                    ids.push(e.orig as TupleId);
                }
            }
            TopkResult::complete(ids, cursor.cost())
        })
    }

    /// Like [`DualLayerIndex::topk`], also recording a full traversal trace.
    pub fn topk_traced(&self, w: &Weights, k: usize) -> (TopkResult, QueryTrace) {
        let k = k.min(self.len());
        let mut trace = QueryTrace::default();
        if k == 0 {
            // An empty query seeds nothing: the untraced path answers it.
            return (self.topk(w, k), trace);
        }
        self.pooled(|scratch| {
            let mut ids = Vec::new();
            let mut cursor = TopkCursor::new(self, w, scratch, None);
            trace.seeds = cursor.scratch.heap.iter().map(|e| e.orig).collect();
            trace.seeds.sort_unstable();
            while ids.len() < k {
                let Some(entry) = cursor.step() else { break };
                if entry.real {
                    ids.push(entry.orig as TupleId);
                }
                let mut q: Vec<Entry> = cursor.scratch.heap.iter().copied().collect();
                q.sort_by(|a, b| b.cmp(a)); // Entry::cmp is reversed; re-reverse for pop order
                trace.steps.push(TraceStep {
                    popped: entry.orig,
                    queue_after: q.into_iter().map(|e| e.orig).collect(),
                    answers_after: ids.clone(),
                });
            }
            (TopkResult::complete(ids, cursor.cost()), trace)
        })
    }

    /// Like [`DualLayerIndex::topk`], also returning every node the query
    /// evaluated (Definition 9): each real tuple and zero-layer
    /// pseudo-tuple that entered the queue, as ascending original node
    /// ids. Read back from the run's own scratch, so memory stays O(n)
    /// at any `k`, where a [`topk_traced`](Self::topk_traced) trace
    /// grows with the square of the pops.
    pub fn topk_evaluated(&self, w: &Weights, k: usize) -> (TopkResult, Vec<NodeId>) {
        self.pooled(|scratch| {
            let result = self.topk_with_scratch(w, k, scratch);
            // `mark_freed` sets `enqueued` exactly once per evaluated node.
            let mut nodes: Vec<NodeId> = (0..self.total_nodes())
                .filter(|&i| scratch.stamp[i] == scratch.epoch && scratch.enqueued[i])
                .map(|i| self.node_orig[i])
                .collect();
            nodes.sort_unstable();
            (result, nodes)
        })
    }

    /// Filtered top-k: the k best tuples *satisfying `pred`*, streamed in
    /// score order until enough matches are found. Because the traversal
    /// enumerates globally by score, cost tracks the number of tuples
    /// inspected, not the relation size — efficient for selective
    /// predicates whose matches score well.
    pub fn topk_where<P: FnMut(TupleId, &[f64]) -> bool>(
        &self,
        w: &Weights,
        k: usize,
        mut pred: P,
    ) -> TopkResult {
        self.pooled(|scratch| {
            let mut cursor = TopkCursor::new(self, w, scratch, None);
            let ids = cursor
                .by_ref()
                .map(|(t, _)| t)
                .filter(|&t| pred(t, self.rel.tuple(t)))
                .take(k.min(self.len()))
                .collect();
            TopkResult::complete(ids, cursor.cost())
        })
    }

    /// Resets scratch, applies the 2-d chain gating for `w`, and seeds the
    /// queue with every initially-free node.
    ///
    /// Chain members *wait* by default (their lazy-initialized state says
    /// so), so seeding only has to touch the one weight-range seed — the
    /// per-query chain setup is O(1), not O(|chain|).
    fn seed_queue(&self, w: &Weights, scratch: &mut QueryScratch, cost: &mut Cost) {
        assert_eq!(w.dims(), self.dims(), "weight dimensionality mismatch");
        scratch.reset(self);
        let mut chain_seed = None;
        if let Some(z) = &self.zero2d {
            let seed = self.chain_internal[z.select(w)];
            scratch.touch(self, seed as usize);
            scratch.chain_wait[seed as usize] = false;
            chain_seed = Some(seed);
        }
        for &s in &self.seeds {
            scratch.mark_freed(self, s, cost);
        }
        if let Some(seed) = chain_seed {
            scratch.mark_freed(self, seed, cost);
        }
        scratch.flush_freed(self, w);
    }

    /// Frees the chain member at `pos` if it was only chain-gated.
    fn free_chain_neighbor(&self, scratch: &mut QueryScratch, pos: usize, cost: &mut Cost) {
        let nb = self.chain_internal[pos];
        scratch.touch(self, nb as usize);
        if scratch.chain_wait[nb as usize] {
            scratch.chain_wait[nb as usize] = false;
            if scratch.remaining[nb as usize] == 0 && !scratch.eblocked[nb as usize] {
                scratch.mark_freed(self, nb, cost);
            }
        }
    }

    /// Pops the minimum-key free node and relaxes its out-edges, possibly
    /// scoring and enqueueing newly free nodes. `None` when the queue is
    /// exhausted. [`TopkCursor::step`] is its only caller.
    fn pop_relax(&self, w: &Weights, scratch: &mut QueryScratch, cost: &mut Cost) -> Option<Entry> {
        let entry = scratch.heap.pop()?;
        let node = entry.node;
        // Relaxation only *marks* newly free nodes; they are scored in one
        // kernel call and pushed at the end of the pop. The heap order is
        // total and `enqueued` dedups at mark time, so deferring the pushes
        // to the pop boundary leaves the pop sequence (and therefore ids
        // and cost) identical to immediate insertion.
        let (fo, eo) = self.arena.both(node);
        // Relax ∀ out-edges: a target needs *all* dominators popped.
        scratch.counters.forall_relaxed(fo.len() as u64);
        for &t in fo {
            scratch.touch(self, t as usize);
            scratch.remaining[t as usize] -= 1;
            if scratch.remaining[t as usize] == 0
                && !scratch.eblocked[t as usize]
                && !scratch.chain_wait[t as usize]
            {
                scratch.mark_freed(self, t, cost);
            }
        }
        // Relax ∃ out-edges: a target needs *any* EDS member popped.
        scratch.counters.exists_relaxed(eo.len() as u64);
        for &t in eo {
            scratch.touch(self, t as usize);
            if scratch.eblocked[t as usize] {
                scratch.eblocked[t as usize] = false;
                if scratch.remaining[t as usize] == 0 && !scratch.chain_wait[t as usize] {
                    scratch.mark_freed(self, t, cost);
                }
            }
        }
        // Chain expansion (2-d zero layer): free adjacent chain nodes.
        if !self.chain_pos_of.is_empty() {
            let pos = self.chain_pos_of[node as usize];
            if pos != u32::MAX {
                let pos = pos as usize;
                if pos > 0 {
                    self.free_chain_neighbor(scratch, pos - 1, cost);
                }
                if pos + 1 < self.chain_internal.len() {
                    self.free_chain_neighbor(scratch, pos + 1, cost);
                }
            }
        }
        scratch.flush_freed(self, w);
        Some(entry)
    }

    /// Answers a budget-guarded top-k query: the full answer when no limit
    /// trips, otherwise the best-so-far prefix with a truncation marker
    /// (see [`TopkResult`] for the partial-result contract). Under an
    /// unlimited budget this is [`DualLayerIndex::topk`].
    pub fn topk_guarded(&self, w: &Weights, k: usize, budget: &QueryBudget) -> TopkResult {
        self.pooled(|scratch| self.topk_guarded_with_scratch(w, k, budget, scratch))
    }

    /// Like [`DualLayerIndex::topk_guarded`], on the given scratch. Every
    /// top-k entry point but the threshold, filtered and traced ones
    /// answers here.
    pub(crate) fn topk_guarded_with_scratch(
        &self,
        w: &Weights,
        k: usize,
        budget: &QueryBudget,
        scratch: &mut QueryScratch,
    ) -> TopkResult {
        let k = k.min(self.len());
        if k == 0 {
            // An empty query seeds nothing, so it costs nothing.
            assert_eq!(w.dims(), self.dims(), "weight dimensionality mismatch");
            return TopkResult::complete(Vec::new(), Cost::new());
        }
        let mut cursor = TopkCursor::new(self, w, scratch, Some(budget));
        let ids: Vec<TupleId> = cursor.by_ref().take(k).map(|(t, _)| t).collect();
        // Only a tripped budget ends the stream before k answers.
        debug_assert!(ids.len() == k || cursor.truncated().is_some());
        TopkResult {
            ids,
            cost: cursor.cost(),
            truncated: cursor.truncated(),
        }
    }
}

/// A lazily-evaluated top-k traversal (Algorithm 2): yields `(tuple id,
/// score)` pairs in ascending `(score, id)` order, scoring tuples only as
/// the consumer advances. Every traversal of the index runs through one:
/// it is the only code that pops the queue.
///
/// The cursor runs on the caller's [`QueryScratch`] and borrows the
/// weights. An optional [`QueryBudget`] is checked before every pop; a
/// trip ends the stream, and [`TopkCursor::truncated`] names the limit.
/// What was yielded before the trip is a true prefix of the answer.
///
/// ```
/// # use drtopk_common::{Distribution, Weights, WorkloadSpec};
/// # use drtopk_core::{DlOptions, DualLayerIndex, QueryBudget, QueryScratch};
/// # use drtopk_core::{TopkCursor, TruncateReason};
/// let rel = WorkloadSpec::new(Distribution::Independent, 3, 200, 1).generate();
/// let idx = DualLayerIndex::build(&rel, DlOptions::default());
/// let w = Weights::uniform(3);
/// let mut scratch = QueryScratch::for_index(&idx);
/// // Take answers until a score threshold is crossed, without fixing k.
/// let cursor = TopkCursor::new(&idx, &w, &mut scratch, None);
/// let cheap: Vec<_> = cursor.take_while(|&(_, s)| s < 0.2).collect();
/// # let _ = cheap;
/// // The same scratch serves the next cursor. A cost cap ends the stream
/// // early, after a true prefix of the answer.
/// let budget = QueryBudget::unlimited().with_max_cost(5);
/// let mut cursor = TopkCursor::new(&idx, &w, &mut scratch, Some(&budget));
/// let prefix: Vec<_> = cursor.by_ref().map(|(t, _)| t).collect();
/// assert_eq!(cursor.truncated(), Some(TruncateReason::CostExceeded));
/// assert_eq!(prefix, idx.topk(&w, prefix.len()).ids);
/// ```
pub struct TopkCursor<'a> {
    idx: &'a DualLayerIndex,
    w: &'a Weights,
    scratch: &'a mut QueryScratch,
    /// `None` when unlimited: the no-op fast path.
    budget: Option<&'a QueryBudget>,
    cost: Cost,
    /// Pops so far; paces the budget's clock reads.
    pops: u64,
    truncated: Option<TruncateReason>,
    /// `Some` until the drop flush; the span covers the cursor's lifetime.
    span: Option<QuerySpan>,
}

impl<'a> TopkCursor<'a> {
    /// Starts a traversal of `idx` on `scratch` (seeds the queue).
    /// `budget`, when given, is checked before every pop.
    ///
    /// # Panics
    /// Panics if `w`'s dimensionality differs from the index's.
    pub fn new(
        idx: &'a DualLayerIndex,
        w: &'a Weights,
        scratch: &'a mut QueryScratch,
        budget: Option<&'a QueryBudget>,
    ) -> Self {
        let span = Some(QuerySpan::start());
        let mut cost = Cost::new();
        idx.seed_queue(w, scratch, &mut cost);
        TopkCursor {
            idx,
            w,
            scratch,
            budget: budget.filter(|b| !b.is_unlimited()),
            cost,
            pops: 0,
            truncated: None,
            span,
        }
    }

    /// Tuples scored so far (Definition 9, monotone in consumption).
    pub fn cost(&self) -> Cost {
        self.cost
    }

    /// The limit that ended the stream, or `None` while the budget holds.
    pub fn truncated(&self) -> Option<TruncateReason> {
        self.truncated
    }

    /// The raw queue head, pseudo-tuple or real: the entry the next
    /// [`step`](Self::step) pops. Pops come in ascending key order, so the
    /// head bounds every tuple not yet popped (DESIGN.md §4). `None` once
    /// the queue is empty or the budget has tripped.
    pub(crate) fn head(&self) -> Option<Entry> {
        let head = self.scratch.heap.peek().copied();
        head.filter(|_| self.truncated.is_none())
    }

    /// Checks the budget, then pops the head and relaxes its edges.
    /// `None` when the queue is empty or the budget trips.
    pub(crate) fn step(&mut self) -> Option<Entry> {
        self.truncated = self
            .truncated
            .or_else(|| self.budget?.tripped(&self.cost, self.pops));
        if self.truncated.is_some() {
            return None;
        }
        self.pops += 1;
        self.idx.pop_relax(self.w, self.scratch, &mut self.cost)
    }
}

impl Drop for TopkCursor<'_> {
    fn drop(&mut self) {
        self.scratch.flush_counters();
        if let Some(span) = self.span.take() {
            span.finish(self.cost.evaluated, self.cost.pseudo_evaluated);
        }
    }
}

impl Iterator for TopkCursor<'_> {
    type Item = (TupleId, f64);

    fn next(&mut self) -> Option<(TupleId, f64)> {
        loop {
            let entry = self.step()?;
            if entry.real {
                return Some((entry.orig as TupleId, entry.score));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{DlOptions, ZeroMode};
    use drtopk_common::relation::{toy_dataset, toy_id};
    use drtopk_common::{topk_bruteforce, Distribution, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn entry_ordering() {
        // `orig` is the tie-break key; `node` is deliberately scrambled to
        // check the internal id plays no part in the ordering.
        let a = Entry {
            score: 0.5,
            real: true,
            node: 30,
            orig: 1,
        };
        let b = Entry {
            score: 0.4,
            real: true,
            node: 0,
            orig: 9,
        };
        let c = Entry {
            score: 0.5,
            real: false,
            node: 99,
            orig: 7,
        };
        let d = Entry {
            score: 0.5,
            real: true,
            node: 50,
            orig: 0,
        };
        let mut h = BinaryHeap::from(vec![a, b, c, d]);
        // Min score first; tie: pseudo before real; tie: lower orig first.
        assert_eq!(h.pop().unwrap().orig, 9);
        assert_eq!(h.pop().unwrap().orig, 7);
        assert_eq!(h.pop().unwrap().orig, 0);
        assert_eq!(h.pop().unwrap().orig, 1);
    }

    #[test]
    fn toy_top3_trace_matches_table_iii() {
        // k = 3, w = (0.5, 0.5) over the toy dataset, plain DL (Table III
        // describes processing without the zero layer).
        let r = toy_dataset();
        let idx = DualLayerIndex::build(&r, DlOptions::dl());
        let (res, trace) = idx.topk_traced(&Weights::uniform(2), 3);
        let id = |c: char| toy_id(c);
        assert_eq!(
            res.ids,
            vec![id('a'), id('b'), id('f')],
            "top-3 = {{a, b, f}}"
        );
        // Step 2: Q = {a, b, c} seeded from L11.
        assert_eq!(trace.seeds, vec![id('a'), id('b'), id('c')]);
        // Steps 3-4: pop a; Q = {b, f, d, e, c} in pop order.
        assert_eq!(trace.steps[0].popped, id('a'));
        assert_eq!(
            trace.steps[0].queue_after,
            vec![id('b'), id('f'), id('d'), id('e'), id('c')]
        );
        // Steps 5-6: pop b; Q = {f, d, e, c, g}.
        assert_eq!(trace.steps[1].popped, id('b'));
        assert_eq!(
            trace.steps[1].queue_after,
            vec![id('f'), id('d'), id('e'), id('c'), id('g')]
        );
        // Step 7: pop f.
        assert_eq!(trace.steps[2].popped, id('f'));
        assert_eq!(
            trace.steps[2].answers_after,
            vec![id('a'), id('b'), id('f')]
        );
        // Cost: exactly {a,b,c} + {d,e,f} + {g} = 7 tuples evaluated.
        assert_eq!(res.cost.total(), 7);
    }

    #[test]
    fn evaluated_set_is_every_node_that_entered_the_queue() {
        let mut rng = StdRng::seed_from_u64(91);
        for d in [2usize, 3] {
            let rel = WorkloadSpec::new(Distribution::AntiCorrelated, d, 400, 5).generate();
            for opts in [DlOptions::dl(), DlOptions::dl_plus()] {
                let idx = DualLayerIndex::build(&rel, opts);
                for k in [0, 1, 9, 200, 400] {
                    let w = Weights::random(d, &mut rng);
                    let (res, trace) = idx.topk_traced(&w, k);
                    let mut entered = trace.seeds.clone();
                    for step in &trace.steps {
                        entered.push(step.popped);
                        entered.extend(&step.queue_after);
                    }
                    entered.sort_unstable();
                    entered.dedup();
                    let (got, evaluated) = idx.topk_evaluated(&w, k);
                    assert_eq!(got, res, "d={d} k={k}");
                    assert_eq!(evaluated, entered, "d={d} k={k}");
                    assert_eq!(evaluated.len() as u64, res.cost.total(), "d={d} k={k}");
                }
            }
        }
    }

    #[test]
    fn matches_bruteforce_all_variants() {
        let mut rng = StdRng::seed_from_u64(2024);
        for dist in [Distribution::Independent, Distribution::AntiCorrelated] {
            for d in 2..=4 {
                let rel = WorkloadSpec::new(dist, d, 300, 42).generate();
                for opts in [
                    DlOptions::dl(),
                    DlOptions::dl_plus(),
                    DlOptions::dg(),
                    DlOptions::dg_plus(),
                ] {
                    let idx = DualLayerIndex::build(&rel, opts.clone());
                    for k in [1, 7, 40] {
                        let w = Weights::random(d, &mut rng);
                        let got = idx.topk(&w, k);
                        let want = topk_bruteforce(&rel, &w, k);
                        assert_eq!(got.ids, want, "{dist:?} d={d} k={k} opts={opts:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn theorem_5_dl_cost_never_exceeds_dg() {
        let mut rng = StdRng::seed_from_u64(7);
        for dist in [Distribution::Independent, Distribution::AntiCorrelated] {
            let rel = WorkloadSpec::new(dist, 3, 500, 9).generate();
            let dl = DualLayerIndex::build(&rel, DlOptions::dl());
            let dg = DualLayerIndex::build(&rel, DlOptions::dg());
            for k in [1, 10, 50] {
                for _ in 0..5 {
                    let w = Weights::random(3, &mut rng);
                    let c_dl = dl.topk(&w, k).cost.total();
                    let c_dg = dg.topk(&w, k).cost.total();
                    assert!(
                        c_dl <= c_dg,
                        "Theorem 5 violated: DL={c_dl} > DG={c_dg} ({dist:?}, k={k})"
                    );
                }
            }
        }
    }

    #[test]
    fn k_edge_cases() {
        let rel = WorkloadSpec::new(Distribution::Independent, 3, 50, 3).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::default());
        let w = Weights::uniform(3);
        assert!(idx.topk(&w, 0).ids.is_empty());
        let all = idx.topk(&w, 500);
        assert_eq!(
            all.ids,
            topk_bruteforce(&rel, &w, 50),
            "k > n returns everything in order"
        );
    }

    #[test]
    fn zero2d_reduces_first_layer_access() {
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, 2, 2000, 5).generate();
        let dl = DualLayerIndex::build(&rel, DlOptions::dl());
        let dlp = DualLayerIndex::build(&rel, DlOptions::dl_plus());
        assert!(dlp.zero2d().is_some());
        let mut rng = StdRng::seed_from_u64(3);
        let mut sum_dl = 0;
        let mut sum_dlp = 0;
        for _ in 0..20 {
            let w = Weights::random(2, &mut rng);
            let a = dl.topk(&w, 10);
            let b = dlp.topk(&w, 10);
            assert_eq!(a.ids, b.ids);
            sum_dl += a.cost.total();
            sum_dlp += b.cost.total();
        }
        assert!(
            sum_dlp < sum_dl,
            "2-d zero layer must cut access cost ({sum_dlp} vs {sum_dl})"
        );
    }

    #[test]
    fn single_tuple_relation() {
        let rel = drtopk_common::Relation::from_rows(2, &[vec![0.3, 0.7]]).unwrap();
        let idx = DualLayerIndex::build(&rel, DlOptions::default());
        let res = idx.topk(&Weights::uniform(2), 1);
        assert_eq!(res.ids, vec![0]);
    }

    #[test]
    fn clustered_zero_in_2d_when_forced() {
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 400, 8).generate();
        let idx = DualLayerIndex::build(
            &rel,
            DlOptions {
                zero: ZeroMode::Clustered { clusters: 4 },
                ..DlOptions::default()
            },
        );
        assert!(idx.zero2d().is_none());
        assert!(idx.stats().pseudo_tuples >= 1);
        let w = Weights::uniform(2);
        assert_eq!(idx.topk(&w, 10).ids, topk_bruteforce(&rel, &w, 10));
    }

    #[test]
    fn scratch_reuse_matches_fresh_queries() {
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, 3, 400, 4).generate();
        for opts in [DlOptions::dl(), DlOptions::dl_plus()] {
            let idx = DualLayerIndex::build(&rel, opts);
            let mut scratch = QueryScratch::for_index(&idx);
            let mut rng = StdRng::seed_from_u64(8);
            for k in [1, 5, 30] {
                for _ in 0..5 {
                    let w = Weights::random(3, &mut rng);
                    let fresh = idx.topk(&w, k);
                    let reused = idx.topk_with_scratch(&w, k, &mut scratch);
                    assert_eq!(fresh.ids, reused.ids);
                    assert_eq!(fresh.cost, reused.cost);
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_across_2d_zero_layer_queries() {
        // The chain seed is per-query; reusing scratch must not leak chain
        // state between different weight vectors.
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, 2, 500, 6).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());
        assert!(idx.zero2d().is_some());
        let mut scratch = QueryScratch::for_index(&idx);
        let mut rng = StdRng::seed_from_u64(44);
        for _ in 0..20 {
            let w = Weights::random(2, &mut rng);
            assert_eq!(
                idx.topk_with_scratch(&w, 10, &mut scratch).ids,
                topk_bruteforce(&rel, &w, 10)
            );
        }
    }

    #[test]
    fn range_by_score_matches_filter_oracle() {
        let rel = WorkloadSpec::new(Distribution::Independent, 3, 300, 12).generate();
        let mut rng = StdRng::seed_from_u64(5);
        for opts in [DlOptions::dl(), DlOptions::dl_plus(), DlOptions::dg()] {
            let idx = DualLayerIndex::build(&rel, opts);
            for _ in 0..5 {
                let w = Weights::random(3, &mut rng);
                // Pick a bound that captures roughly the 25th tuple.
                let bound = {
                    let t25 = topk_bruteforce(&rel, &w, 25)[24];
                    w.score(rel.tuple(t25))
                };
                let got = idx.range_by_score(&w, bound);
                let want: Vec<_> = {
                    let mut all = topk_bruteforce(&rel, &w, rel.len());
                    all.retain(|&t| w.score(rel.tuple(t)) <= bound);
                    all
                };
                assert_eq!(got.ids, want);
            }
        }
    }

    #[test]
    fn progressive_cursor_matches_topk() {
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, 3, 400, 21).generate();
        let mut rng = StdRng::seed_from_u64(66);
        for opts in [DlOptions::dl(), DlOptions::dl_plus(), DlOptions::dg_plus()] {
            let idx = DualLayerIndex::build(&rel, opts);
            for _ in 0..5 {
                let w = Weights::random(3, &mut rng);
                let want = idx.topk(&w, 25);
                let mut scratch = QueryScratch::for_index(&idx);
                let mut cursor = TopkCursor::new(&idx, &w, &mut scratch, None);
                let got: Vec<TupleId> = cursor.by_ref().take(25).map(|(t, _)| t).collect();
                assert_eq!(got, want.ids);
                // Consuming exactly k answers costs exactly what topk(k) costs.
                assert_eq!(cursor.cost(), want.cost);
            }
        }
    }

    #[test]
    fn progressive_cursor_streams_everything_in_order() {
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 150, 9).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());
        let w = Weights::new(vec![0.7, 0.3]).unwrap();
        let mut scratch = QueryScratch::for_index(&idx);
        let all: Vec<(TupleId, f64)> = TopkCursor::new(&idx, &w, &mut scratch, None).collect();
        assert_eq!(all.len(), 150);
        assert!(all.windows(2).all(|p| p[0].1 <= p[1].1 + 1e-12));
        let ids: Vec<TupleId> = all.iter().map(|&(t, _)| t).collect();
        assert_eq!(ids, topk_bruteforce(&rel, &w, 150));
    }

    #[test]
    fn cursor_head_is_the_next_pop() {
        let rel = WorkloadSpec::new(Distribution::Independent, 3, 100, 2).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());
        let w = Weights::uniform(3);
        let mut scratch = QueryScratch::for_index(&idx);
        let mut cursor = TopkCursor::new(&idx, &w, &mut scratch, None);
        let mut first = None;
        while first.is_none() {
            let head = cursor.head().unwrap();
            let popped = cursor.step().unwrap();
            assert_eq!(head, popped, "the head is what the next step pops");
            first = popped.real.then_some(popped.orig as TupleId);
        }
        assert_eq!(first, Some(topk_bruteforce(&rel, &w, 1)[0]));
    }

    /// End-to-end wiring: one topk call must land in the global registry.
    /// Deltas are `>=` because sibling tests run queries concurrently.
    #[test]
    #[cfg(feature = "obs")]
    fn metrics_registry_observes_queries() {
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, 2, 300, 17).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());
        let w = Weights::uniform(2);
        let before = drtopk_obs::metrics().snapshot();
        let res = idx.topk(&w, 10);
        let after = drtopk_obs::metrics().snapshot();
        assert!(after.queries > before.queries);
        assert!(after.tuples_evaluated >= before.tuples_evaluated + res.cost.evaluated);
        // Every answer was once a heap push; the 2-d zero layer probed.
        assert!(after.heap_pushes >= before.heap_pushes + res.ids.len() as u64);
        assert!(after.zero_probes > before.zero_probes);
        assert!(after.query_cost.count() > before.query_cost.count());
        assert!(after.query_latency_ns.count() > before.query_latency_ns.count());
        // The epoch scratch reports how many nodes the query lazily
        // initialized, and the scoring kernel its block sizes.
        assert!(after.scratch_touched.count() > before.scratch_touched.count());
        assert!(after.kernel_block_tuples.count() > before.kernel_block_tuples.count());
        assert!(
            after.kernel_block_tuples.mean() >= 1.0,
            "blocks hold at least one tuple"
        );
    }

    #[test]
    fn range_by_score_edge_bounds() {
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 100, 3).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl());
        let w = Weights::uniform(2);
        assert!(
            idx.range_by_score(&w, -1.0).ids.is_empty(),
            "negative bound returns nothing"
        );
        let all = idx.range_by_score(&w, 2.0);
        assert_eq!(all.ids.len(), 100, "bound above max returns everything");
        assert_eq!(all.ids, topk_bruteforce(&rel, &w, 100));
    }
}

#[cfg(test)]
mod where_tests {
    use super::*;
    use crate::options::DlOptions;
    use drtopk_common::{topk_bruteforce, Distribution, WorkloadSpec};

    #[test]
    fn filtered_topk_matches_filtered_oracle() {
        let rel = WorkloadSpec::new(Distribution::Independent, 3, 400, 13).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());
        let w = Weights::new(vec![0.5, 0.25, 0.25]).unwrap();
        // Predicate: first attribute under 0.3 ("price cap").
        let got = idx.topk_where(&w, 10, |_, t| t[0] < 0.3);
        let want: Vec<TupleId> = topk_bruteforce(&rel, &w, rel.len())
            .into_iter()
            .filter(|&t| rel.tuple(t)[0] < 0.3)
            .take(10)
            .collect();
        assert_eq!(got.ids, want);
        assert!(got.cost.evaluated <= rel.len() as u64);
    }

    #[test]
    fn unsatisfiable_predicate_scans_to_exhaustion() {
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 60, 2).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl());
        let w = Weights::uniform(2);
        let got = idx.topk_where(&w, 5, |_, _| false);
        assert!(got.ids.is_empty());
        assert_eq!(got.cost.evaluated, 60, "must prove no match exists");
    }

    #[test]
    fn trivial_predicate_equals_plain_topk() {
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, 3, 300, 4).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());
        let w = Weights::uniform(3);
        assert_eq!(
            idx.topk_where(&w, 15, |_, _| true).ids,
            idx.topk(&w, 15).ids
        );
    }
}

#[cfg(test)]
mod budget_tests {
    use super::*;
    use crate::options::DlOptions;
    use drtopk_common::{Distribution, WorkloadSpec};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn fixture() -> (drtopk_common::Relation, DualLayerIndex) {
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, 3, 500, 19).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());
        (rel, idx)
    }

    #[test]
    fn unlimited_budget_matches_plain_topk() {
        let (_, idx) = fixture();
        let w = Weights::uniform(3);
        let plain = idx.topk(&w, 25);
        let guarded = idx.topk_guarded(&w, 25, &QueryBudget::unlimited());
        assert!(guarded.is_complete());
        assert_eq!(guarded.ids, plain.ids);
        assert_eq!(guarded.cost, plain.cost);
    }

    #[test]
    fn cost_cap_returns_exact_prefix() {
        let (_, idx) = fixture();
        let w = Weights::new(vec![0.6, 0.2, 0.2]).unwrap();
        let full = idx.topk(&w, 50);
        assert!(full.cost.total() > 10, "fixture must be non-trivial");
        let budget = QueryBudget::unlimited().with_max_cost(full.cost.total() / 2);
        let guarded = idx.topk_guarded(&w, 50, &budget);
        assert_eq!(guarded.truncated, Some(TruncateReason::CostExceeded));
        assert!(guarded.ids.len() < full.ids.len());
        // The partial-result contract: a true prefix of the exact answer.
        assert_eq!(guarded.ids, full.ids[..guarded.ids.len()]);
        // Pop-granularity enforcement can overshoot by at most one pop's
        // relaxation fan-out, never by a full traversal.
        assert!(guarded.cost.total() < full.cost.total());
    }

    #[test]
    fn expired_deadline_truncates_immediately() {
        let (_, idx) = fixture();
        let w = Weights::uniform(3);
        let budget =
            QueryBudget::unlimited().with_deadline(Instant::now() - Duration::from_secs(1));
        let guarded = idx.topk_guarded(&w, 20, &budget);
        assert_eq!(guarded.truncated, Some(TruncateReason::Deadline));
        assert!(
            guarded.ids.is_empty(),
            "deadline already passed before the first pop"
        );
        let generous = QueryBudget::unlimited().with_timeout(Duration::from_secs(60));
        let ok = idx.topk_guarded(&w, 20, &generous);
        assert!(ok.is_complete());
        assert_eq!(ok.ids, idx.topk(&w, 20).ids);
    }

    #[test]
    fn pre_tripped_cancel_flag_stops_the_query() {
        let (_, idx) = fixture();
        let w = Weights::uniform(3);
        let flag = Arc::new(AtomicBool::new(true));
        let budget = QueryBudget::unlimited().with_cancel_flag(flag.clone());
        let guarded = idx.topk_guarded(&w, 20, &budget);
        assert_eq!(guarded.truncated, Some(TruncateReason::Cancelled));
        assert!(guarded.ids.is_empty());
        // Untripped flag: the same budget completes normally.
        flag.store(false, AtomicOrdering::SeqCst);
        assert!(idx.topk_guarded(&w, 20, &budget).is_complete());
    }

    #[test]
    fn guarded_scratch_reuse_is_clean_after_truncation() {
        // A truncated query abandons mid-traversal state in the scratch;
        // the next query must reset it completely.
        let (rel, idx) = fixture();
        let mut scratch = QueryScratch::for_index(&idx);
        let w = Weights::uniform(3);
        let tight = QueryBudget::unlimited().with_max_cost(3);
        let t = idx.topk_guarded_with_scratch(&w, 40, &tight, &mut scratch);
        assert!(!t.is_complete());
        let full = idx.topk_guarded_with_scratch(&w, 40, &QueryBudget::unlimited(), &mut scratch);
        assert!(full.is_complete());
        assert_eq!(full.ids, drtopk_common::topk_bruteforce(&rel, &w, 40));
    }

    #[test]
    fn zero_k_is_always_complete() {
        let (_, idx) = fixture();
        let w = Weights::uniform(3);
        let g = idx.topk_guarded(&w, 0, &QueryBudget::unlimited().with_max_cost(0));
        assert!(g.is_complete());
        assert!(g.ids.is_empty());
    }
}

#[cfg(test)]
mod pool_tests {
    use super::*;
    use crate::options::DlOptions;
    use drtopk_common::{Distribution, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::panic::AssertUnwindSafe;

    fn fixture() -> DualLayerIndex {
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, 3, 500, 23).generate();
        DualLayerIndex::build(&rel, DlOptions::dl_plus())
    }

    /// Idle scratches in `idx`'s pool.
    fn idle(idx: &DualLayerIndex) -> usize {
        idx.pool.0.lock().unwrap().len()
    }

    #[test]
    fn concurrent_queries_leave_one_idle_scratch_per_query_at_once() {
        let idx = fixture();
        let threads = 4;
        let all_in = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for t in 0..threads {
                let (idx, all_in) = (&idx, &all_in);
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t as u64);
                    // The first query waits inside its traversal until
                    // every thread is inside one: `threads` run at once.
                    let mut waited = false;
                    idx.topk_where(&Weights::random(3, &mut rng), 5, |_, _| {
                        if !std::mem::replace(&mut waited, true) {
                            all_in.wait();
                        }
                        true
                    });
                    let capped = QueryBudget::unlimited().with_max_cost(8);
                    for _ in 0..100 {
                        let w = Weights::random(3, &mut rng);
                        idx.topk(&w, 10);
                        idx.topk_guarded(&w, 10, &capped);
                    }
                });
            }
        });
        assert_eq!(idle(&idx), threads, "one idle scratch per query at once");
    }

    #[test]
    fn a_query_that_panics_drops_its_scratch() {
        let idx = fixture();
        let w = Weights::uniform(3);
        let want = idx.topk_with_scratch(&w, 10, &mut QueryScratch::for_index(&idx));
        // The predicate panics mid-traversal, with the pooled scratch
        // half-updated.
        let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut seen = 0;
            idx.topk_where(&w, 10, |_, _| {
                seen += 1;
                assert!(seen < 3, "injected predicate fault");
                true
            })
        }));
        assert!(panicked.is_err());
        assert_eq!(idle(&idx), 0, "the unwound scratch is dropped, not pooled");
        assert_eq!(idx.topk(&w, 10), want);
        assert_eq!(idle(&idx), 1);
    }
}
