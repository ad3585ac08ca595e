//! Dynamic maintenance on top of the (static) dual-resolution index.
//!
//! The paper's index, like Onion and DG, is built once over a frozen
//! relation. Real deployments need inserts and deletes without paying the
//! full rebuild (Table IV) per update. [`DynamicIndex`] follows the
//! classic log-structured pattern:
//!
//! * inserts land in a small unindexed *buffer*, kept as a dominance
//!   forest: a read scores the forest's roots, and a buffered row's
//!   children only once that row is merged into the answer, so the rows
//!   a read never reaches cost it nothing (DESIGN.md §4);
//! * deletes are *tombstones*, which the cursor skips as it pops them;
//! * once the buffer or tombstone set outgrows `rebuild_fraction` of the
//!   indexed size, the index is rebuilt from the live tuple set.
//!
//! Answers are always exact: differential tests pin them against a
//! brute-force oracle over the live multiset. Ids returned are *handles*
//! (stable across rebuilds), not positions in the current index, so a
//! guarded read answers in the static index's answer type as
//! [`TopkResult<Handle>`].

use crate::cache::{Lookup, ResultCache};
use crate::index::DualLayerIndex;
use crate::options::DlOptions;
use crate::query::{Entry, QueryBudget, QueryScratch, TopkCursor, TopkResult, TruncateReason};
use crate::snapshot::IndexSnapshot;
use drtopk_common::{dominates, Cost, Error, Relation, Weights};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;

/// A stable handle to a tuple inserted into a [`DynamicIndex`].
pub type Handle = u64;

/// An updatable top-k index: a static [`DualLayerIndex`] plus an insert
/// buffer and tombstones.
#[derive(Debug)]
pub struct DynamicIndex {
    opts: DlOptions,
    /// The static index; its scratch pool serves every read.
    pub(crate) index: DualLayerIndex,
    /// Handle of each tuple position in the indexed relation.
    indexed_handles: Vec<Handle>,
    /// Buffered (handle, row) inserts, not yet indexed, ascending by
    /// handle.
    buffer: Vec<(Handle, Vec<f64>)>,
    /// Dominance forest over the live buffered rows.
    forest: Forest,
    /// Deleted handles (both indexed and buffered).
    tombstones: HashSet<Handle>,
    next_handle: Handle,
    /// Rebuild when `buffer + tombstones > threshold_num / threshold_den ×
    /// indexed size` (and at least `MIN_REBUILD` pending updates).
    rebuild_fraction: f64,
    rebuilds: usize,
    /// Optional weight-space result cache, invalidated by every mutation.
    cache: Option<Arc<ResultCache>>,
}

impl Clone for DynamicIndex {
    /// Clones the index *without* the attached cache: a shared cache would
    /// let one clone serve answers filled by the other after their live
    /// sets diverge. Re-attach a cache to the clone if it needs one.
    fn clone(&self) -> Self {
        DynamicIndex {
            opts: self.opts.clone(),
            index: self.index.clone(),
            indexed_handles: self.indexed_handles.clone(),
            buffer: self.buffer.clone(),
            forest: self.forest.clone(),
            tombstones: self.tombstones.clone(),
            next_handle: self.next_handle,
            rebuild_fraction: self.rebuild_fraction,
            rebuilds: self.rebuilds,
            cache: None,
        }
    }
}

const MIN_REBUILD: usize = 64;

/// The dominance forest over the live buffered rows, by buffer position
/// (positions ascend with handles, so an older row has a smaller one).
///
/// A row's parent is the oldest older live buffered row that dominates
/// it: ≤ in every coordinate and < in at least one. A row with no such
/// row is a root. Exact duplicates never dominate each other, and a
/// newer row never parents an older one. The forest is a function of
/// the live buffered rows alone. Dominance is transitive, so a parent's
/// own parent would dominate the child and be older: every parent is a
/// root.
///
/// Weights are positive and f64 rounding is monotone, so a parent never
/// scores above its child, and its handle is smaller. A read therefore
/// scores the roots and, as each buffered row is merged, that row's
/// children: the lowest scored row still bounds every unscored one in
/// `(score, handle)` order.
#[derive(Debug, Clone, Default)]
struct Forest {
    /// The roots' positions, ascending.
    roots: Vec<usize>,
    /// Per position: the rows a live root parents.
    children: Vec<Vec<usize>>,
}

impl Forest {
    /// The parent of the live row at `pos`: the oldest root older than
    /// it that dominates it, since every parent is a root.
    fn parent(&self, buffer: &[(Handle, Vec<f64>)], pos: usize) -> Option<usize> {
        let row = &buffer[pos].1;
        self.roots
            .iter()
            .copied()
            .take_while(|&r| r < pos)
            .find(|&r| dominates(&buffer[r].1, row))
    }

    /// Attaches the live row at `pos`, newer than every row attached so
    /// far.
    fn attach(&mut self, buffer: &[(Handle, Vec<f64>)], pos: usize) {
        self.children.resize_with(pos + 1, Vec::new);
        self.hang(buffer, pos);
    }

    /// Lists the live row at `pos` under its parent, or with the roots.
    fn hang(&mut self, buffer: &[(Handle, Vec<f64>)], pos: usize) {
        match self.parent(buffer, pos) {
            Some(p) => self.children[p].push(pos),
            None => {
                let at = self.roots.partition_point(|&r| r < pos);
                self.roots.insert(at, pos);
            }
        }
    }

    /// Takes the live row at `pos` out, as its delete does. A deleted
    /// root's children hang again, oldest first, so a child that becomes
    /// a root is listed before a younger one looks for its parent.
    fn detach(&mut self, buffer: &[(Handle, Vec<f64>)], pos: usize) {
        match self.roots.binary_search(&pos) {
            Ok(at) => {
                self.roots.remove(at);
                let mut orphans = std::mem::take(&mut self.children[pos]);
                orphans.sort_unstable();
                for c in orphans {
                    self.hang(buffer, c);
                }
            }
            Err(_) => {
                let p = self
                    .parent(buffer, pos)
                    .expect("a row that is no root has one");
                let siblings = &mut self.children[p];
                let at = siblings.iter().position(|&c| c == pos);
                siblings.swap_remove(at.expect("a child is listed under its parent"));
            }
        }
    }
}

/// Flat, public capture of a [`DynamicIndex`]'s full state, for
/// persistence. A state plus a replayed operation log reconstructs an
/// index whose answers are bit-identical to the original's: the static
/// part round-trips through [`IndexSnapshot`], and the dynamic part
/// (buffer, tombstones, handle map) is carried verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicState {
    /// Snapshot of the static index over the indexed tuples.
    pub index: IndexSnapshot,
    /// Handle of each tuple position in the indexed relation (strictly
    /// ascending).
    pub indexed_handles: Vec<Handle>,
    /// Buffered `(handle, row)` inserts not yet indexed, ascending by
    /// handle ([`DynamicIndex::from_state`] sorts them).
    pub buffer: Vec<(Handle, Vec<f64>)>,
    /// Deleted handles, sorted ascending.
    pub tombstones: Vec<Handle>,
    /// The next handle to assign.
    pub next_handle: Handle,
}

impl DynamicIndex {
    /// Builds over an initial relation. `rebuild_fraction` is the pending-
    /// update fraction that triggers a rebuild (e.g. 0.2).
    pub fn new(rel: &Relation, opts: DlOptions, rebuild_fraction: f64) -> Self {
        let handles = (0..rel.len() as Handle).collect();
        DynamicIndex::with_handles(rel, handles, opts, rebuild_fraction)
            .expect("positions are one ascending handle per tuple")
    }

    /// Builds over a relation whose tuples carry *caller-assigned* handles
    /// (strictly ascending, one per tuple). This is how a shard of a
    /// partitioned relation keeps global tuple ids: shard `s` of `P` holds
    /// the tuples whose global handle `h` satisfies `h % P == s`, and its
    /// answers come back as global handles — so a k-way merge across
    /// shards is directly comparable to the unsharded index's answers.
    ///
    /// `next_handle` starts one past the largest given handle, so replayed
    /// inserts (which also carry global handles) keep their discipline.
    pub fn with_handles(
        rel: &Relation,
        handles: Vec<Handle>,
        opts: DlOptions,
        rebuild_fraction: f64,
    ) -> Result<Self, Error> {
        if handles.len() != rel.len() {
            return Err(Error::Invalid(format!(
                "{} handles for {} tuples",
                handles.len(),
                rel.len()
            )));
        }
        if handles.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Error::Invalid(
                "shard handles must be strictly ascending".into(),
            ));
        }
        let next_handle = handles.last().map_or(0, |&h| h + 1);
        let index = DualLayerIndex::build(rel, opts.clone());
        Ok(DynamicIndex {
            opts,
            indexed_handles: handles,
            next_handle,
            index,
            buffer: Vec::new(),
            forest: Forest::default(),
            tombstones: HashSet::new(),
            rebuild_fraction: rebuild_fraction.clamp(0.01, 10.0),
            rebuilds: 0,
            cache: None,
        })
    }

    /// Attribute dimensionality of the indexed relation.
    pub fn dims(&self) -> usize {
        self.index.dims()
    }

    /// Attaches a weight-space result cache to the query path. The cache
    /// is invalidated on attachment (it may hold entries from an earlier
    /// life) and by every subsequent mutation; one cache must serve
    /// exactly one logical index.
    pub fn attach_cache(&mut self, cache: Arc<ResultCache>) {
        cache.invalidate_all();
        self.cache = Some(cache);
    }

    /// Invalidates the attached cache (every mutation calls this).
    fn touch_cache(&self) {
        if let Some(c) = &self.cache {
            c.invalidate_all();
        }
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.indexed_handles.len() + self.buffer.len() - self.tombstones.len()
    }

    /// Whether no live tuples remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many rebuilds have happened.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// Pending (unindexed or tombstoned) update count.
    pub fn pending(&self) -> usize {
        self.buffer.len() + self.tombstones.len()
    }

    /// The attribute values of a live handle, if present.
    pub fn get(&self, h: Handle) -> Option<&[f64]> {
        if self.tombstones.contains(&h) {
            return None;
        }
        if let Ok(pos) = self.indexed_handles.binary_search(&h) {
            return Some(self.index.relation().tuple(pos as u32));
        }
        self.buffered(h).map(|pos| self.buffer[pos].1.as_slice())
    }

    /// The buffer position of a buffered handle, live or deleted.
    fn buffered(&self, h: Handle) -> Option<usize> {
        self.buffer.binary_search_by_key(&h, |&(bh, _)| bh).ok()
    }

    /// Validates a candidate row without mutating anything — the check
    /// [`DynamicIndex::insert`] applies, exposed so write-ahead-logging
    /// callers can validate *before* logging and never log a rejected row.
    pub fn check_row(&self, row: &[f64]) -> Result<(), Error> {
        if row.len() != self.index.dims() {
            return Err(Error::DimensionMismatch {
                expected: self.index.dims(),
                got: row.len(),
            });
        }
        for (i, &v) in row.iter().enumerate() {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(Error::InvalidValue {
                    tuple: self.buffer.len(),
                    dim: i,
                    value: v,
                });
            }
        }
        Ok(())
    }

    /// The handle the next successful [`DynamicIndex::insert`] will
    /// return. Write-ahead-logging callers log this handle before
    /// applying the insert.
    pub fn next_handle(&self) -> Handle {
        self.next_handle
    }

    /// Inserts a tuple, returning its stable handle.
    pub fn insert(&mut self, row: &[f64]) -> Result<Handle, Error> {
        let h = self.next_handle;
        self.replay_insert(h, row)?;
        Ok(h)
    }

    /// Replays a logged insert with its original handle (recovery path).
    ///
    /// Handles must arrive in the order they were assigned: `h` may not be
    /// below `next_handle` (that would collide with a live or tombstoned
    /// handle). Gaps are allowed — a log may skip handles whose insert was
    /// never acknowledged.
    pub fn replay_insert(&mut self, h: Handle, row: &[f64]) -> Result<(), Error> {
        if h < self.next_handle {
            return Err(Error::Invalid(format!(
                "replayed insert handle {h} below next handle {}",
                self.next_handle
            )));
        }
        self.check_row(row)?;
        self.next_handle = h + 1;
        self.buffer.push((h, row.to_vec()));
        self.forest.attach(&self.buffer, self.buffer.len() - 1);
        drtopk_obs::metrics().dynamic_inserts.add(1);
        self.touch_cache();
        self.maybe_rebuild();
        Ok(())
    }

    /// Deletes a handle; returns whether it was live.
    pub fn delete(&mut self, h: Handle) -> bool {
        if self.get(h).is_none() {
            return false;
        }
        if let Some(pos) = self.buffered(h) {
            self.forest.detach(&self.buffer, pos);
        }
        self.tombstones.insert(h);
        drtopk_obs::metrics().dynamic_deletes.add(1);
        self.touch_cache();
        self.maybe_rebuild();
        true
    }

    /// Answers a top-k query over the live tuples; returns stable handles.
    ///
    /// With a cache attached, hits return the same handles with the
    /// cache's cost semantics (0 on a 2-d cell hit, k rescores on a
    /// certified hit) and misses report the cost of the k+1-fetch the
    /// cache fill requires; answers are bit-identical either way.
    pub fn topk(&self, w: &Weights, k: usize) -> (Vec<Handle>, Cost) {
        let (hits, cost, _) = self.topk_scored(w, k, &QueryBudget::unlimited());
        (hits.into_iter().map(|(_, h)| h).collect(), cost)
    }

    /// Budget-guarded top-k over the live tuples, with the true-prefix
    /// partial-result contract of [`DualLayerIndex::topk_guarded`]. With a
    /// cache attached, a hit is served complete under any budget and a
    /// budgeted miss never fills (see [`crate::cache`]).
    pub fn topk_guarded(&self, w: &Weights, k: usize, budget: &QueryBudget) -> TopkResult<Handle> {
        let (hits, cost, truncated) = self.topk_scored(w, k, budget);
        TopkResult {
            ids: hits.into_iter().map(|(_, h)| h).collect(),
            cost,
            truncated,
        }
    }

    /// The one query body: the attached cache's rule around the first
    /// k live answers of a [`LiveCursor`], or k+1 for a cache fill: the
    /// (k+1)-th score is the new entry's barrier. Returns the answer as
    /// `(score, handle)` pairs ascending, its cost, and the tripped limit
    /// when the answer is a true prefix only.
    ///
    /// The budget is checked before every step, buffered or static, and a
    /// tripped read returns what it merged: a true prefix. As for a
    /// static read, its cost cap bounds the traversal. The buffered rows
    /// a read scores are the forest's roots plus the children of each
    /// buffered row it merged; a row it never reaches costs nothing.
    pub(crate) fn topk_scored(
        &self,
        w: &Weights,
        k: usize,
        budget: &QueryBudget,
    ) -> (Vec<(f64, Handle)>, Cost, Option<TruncateReason>) {
        let k_eff = k.min(self.len());
        if k_eff == 0 {
            return (Vec::new(), Cost::new(), None);
        }
        let cache = self.cache.as_deref();
        let ticket = match cache.map(|c| c.lookup(&self.index, self.len(), w, k, Some(budget))) {
            Some(Lookup::Hit(hits, cost, _)) => return (hits, cost, None),
            Some(Lookup::Miss(ticket)) => ticket,
            Some(Lookup::Bypass) | None => None,
        };
        let want = (k_eff + usize::from(ticket.is_some())).min(self.len());
        let (mut merged, cost, truncated) = self.index.pooled(|scratch| {
            let mut live = LiveCursor::new(self, w, scratch);
            let mut merged = Vec::with_capacity(want);
            let mut truncated = None;
            while merged.len() < want {
                truncated = live.tripped(budget);
                if truncated.is_some() {
                    break;
                }
                let Some(hit) = live.step() else { break };
                merged.extend(hit);
            }
            (merged, live.cost(), truncated)
        });
        if let (Some(t), Some(c)) = (ticket, cache) {
            let fetched = merged.iter().map(|&(_, h)| h);
            c.fill(t, w, fetched, |h| {
                self.get(h).expect("answer handle is live")
            });
        }
        merged.truncate(k_eff);
        (merged, cost, truncated)
    }

    /// Forces a rebuild now (compacts buffer and tombstones).
    pub fn compact(&mut self) {
        if self.pending() == 0 {
            return;
        }
        let dims = self.index.dims();
        let mut handles = Vec::with_capacity(self.len());
        let mut flat = Vec::with_capacity(self.len() * dims);
        for (pos, &h) in self.indexed_handles.iter().enumerate() {
            if !self.tombstones.contains(&h) {
                handles.push(h);
                flat.extend_from_slice(self.index.relation().tuple(pos as u32));
            }
        }
        for (h, row) in &self.buffer {
            if !self.tombstones.contains(h) {
                handles.push(*h);
                flat.extend_from_slice(row);
            }
        }
        // Keep handles sorted so `get` can binary-search.
        let mut order: Vec<usize> = (0..handles.len()).collect();
        order.sort_unstable_by_key(|&i| handles[i]);
        let mut sorted_flat = Vec::with_capacity(flat.len());
        let mut sorted_handles = Vec::with_capacity(handles.len());
        for &i in &order {
            sorted_handles.push(handles[i]);
            sorted_flat.extend_from_slice(&flat[i * dims..(i + 1) * dims]);
        }
        let rel = Relation::from_flat_unchecked(dims, sorted_flat);
        self.index = DualLayerIndex::build(&rel, self.opts.clone());
        self.indexed_handles = sorted_handles;
        self.buffer.clear();
        self.forest = Forest::default();
        self.tombstones.clear();
        self.rebuilds += 1;
        drtopk_obs::metrics().dynamic_rebuilds.add(1);
        self.touch_cache();
    }

    /// Captures the full state for persistence. Reconstructing via
    /// [`DynamicIndex::from_state`] yields an index whose answers are
    /// bit-identical to this one's.
    pub fn to_state(&self) -> DynamicState {
        let mut tombstones: Vec<Handle> = self.tombstones.iter().copied().collect();
        tombstones.sort_unstable();
        DynamicState {
            index: self.index.to_snapshot(),
            indexed_handles: self.indexed_handles.clone(),
            buffer: self.buffer.clone(),
            tombstones,
            next_handle: self.next_handle,
        }
    }

    /// Reconstructs an index from a persisted state.
    ///
    /// Beyond the structural checks [`DualLayerIndex::from_snapshot`]
    /// performs, this validates the dynamic bookkeeping: the handle map
    /// covers the indexed relation, handles are unique, buffered rows are
    /// well-formed, and `next_handle` is above every recorded handle. The
    /// snapshot must also be compatible with `opts` (see
    /// [`IndexSnapshot::check_compatible`]).
    pub fn from_state(
        state: &DynamicState,
        opts: DlOptions,
        rebuild_fraction: f64,
    ) -> Result<Self, Error> {
        state.index.check_compatible(&opts, None)?;
        let index = DualLayerIndex::from_snapshot(&state.index)?;
        if state.indexed_handles.len() != index.len() {
            return Err(Error::Invalid(format!(
                "handle map covers {} tuples but the index holds {}",
                state.indexed_handles.len(),
                index.len()
            )));
        }
        if state.indexed_handles.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Error::Invalid(
                "indexed handles must be strictly ascending".into(),
            ));
        }
        let mut seen: HashSet<Handle> = state.indexed_handles.iter().copied().collect();
        let dims = index.dims();
        for (i, (h, row)) in state.buffer.iter().enumerate() {
            if !seen.insert(*h) {
                return Err(Error::Invalid(format!(
                    "buffered handle {h} duplicates an earlier handle"
                )));
            }
            if row.len() != dims {
                return Err(Error::DimensionMismatch {
                    expected: dims,
                    got: row.len(),
                });
            }
            for (d, &v) in row.iter().enumerate() {
                if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                    return Err(Error::InvalidValue {
                        tuple: i,
                        dim: d,
                        value: v,
                    });
                }
            }
        }
        let max_handle = seen.iter().copied().max();
        if let Some(m) = max_handle {
            if state.next_handle <= m {
                return Err(Error::Invalid(format!(
                    "next handle {} not above max recorded handle {m}",
                    state.next_handle
                )));
            }
        }
        for &t in &state.tombstones {
            if t >= state.next_handle {
                return Err(Error::Invalid(format!(
                    "tombstone {t} at or above next handle {}",
                    state.next_handle
                )));
            }
        }
        let mut buffer = state.buffer.clone();
        buffer.sort_unstable_by_key(|&(h, _)| h);
        let tombstones: HashSet<Handle> = state.tombstones.iter().copied().collect();
        let mut forest = Forest::default();
        for (pos, (h, _)) in buffer.iter().enumerate() {
            if !tombstones.contains(h) {
                forest.attach(&buffer, pos);
            }
        }
        Ok(DynamicIndex {
            opts,
            index,
            indexed_handles: state.indexed_handles.clone(),
            buffer,
            forest,
            tombstones,
            next_handle: state.next_handle,
            rebuild_fraction: rebuild_fraction.clamp(0.01, 10.0),
            rebuilds: 0,
            cache: None,
        })
    }

    fn maybe_rebuild(&mut self) {
        let pending = self.pending();
        if pending >= MIN_REBUILD
            && pending as f64 > self.rebuild_fraction * self.indexed_handles.len().max(1) as f64
        {
            self.compact();
        }
    }
}

/// A stream's next entry in merge order: score ascending, then a
/// pseudo-tuple (`handle` is `None`) before a real tuple of equal score,
/// since its members may tie that tuple, then handle ascending. The
/// derived order is exactly that.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub(crate) struct Head {
    pub(crate) score: f64,
    pub(crate) handle: Option<Handle>,
}

/// A best-first stream over a [`DynamicIndex`]'s live tuples, ascending
/// by `(score, handle)`: the static index's cursor merged with the live
/// buffered rows. `topk_scored` takes its answer from one, and the shard
/// router's frontier steps one per lent shard.
///
/// The static cursor pops indexed tuples in `(score, position)` order,
/// which is `(score, handle)` order because handles ascend with
/// position, and tombstoned handles are skipped as they pop. Its raw
/// queue head bounds every indexed tuple not yet popped. The buffered
/// rows start as the forest's scored roots in a min-heap; a buffered row
/// that goes next scores and pushes its children, so the heap's head
/// bounds every buffered row not yet yielded (see [`Forest`]). A
/// buffered row goes next when its [`Head`] orders first. The stream
/// ends once it yielded every live tuple, so it never pops past its last
/// answer.
pub(crate) struct LiveCursor<'a> {
    dynamic: &'a DynamicIndex,
    w: &'a Weights,
    cursor: TopkCursor<'a>,
    /// Scored buffered rows not yet yielded.
    buffered: BinaryHeap<Reverse<Buffered>>,
    /// Buffered rows scored so far.
    scored: u64,
    /// Live tuples not yet yielded.
    left: usize,
    /// Steps so far; paces the budget's clock reads.
    steps: u64,
}

/// A scored buffered row, ordered by `(score, handle)`.
#[derive(Debug, Clone, Copy)]
struct Buffered {
    score: f64,
    handle: Handle,
    /// Its buffer position.
    pos: usize,
}

impl PartialEq for Buffered {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Buffered {}

impl PartialOrd for Buffered {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Buffered {
    fn cmp(&self, other: &Self) -> Ordering {
        let by_score = self.score.partial_cmp(&other.score);
        by_score
            .expect("scores are finite")
            .then(self.handle.cmp(&other.handle))
    }
}

impl<'a> LiveCursor<'a> {
    /// Starts a stream on `scratch`: seeds the static cursor and scores
    /// the forest's roots.
    pub(crate) fn new(
        dynamic: &'a DynamicIndex,
        w: &'a Weights,
        scratch: &'a mut QueryScratch,
    ) -> Self {
        let mut live = LiveCursor {
            dynamic,
            w,
            cursor: TopkCursor::new(&dynamic.index, w, scratch, None),
            buffered: BinaryHeap::new(),
            scored: 0,
            left: dynamic.len(),
            steps: 0,
        };
        live.score(&dynamic.forest.roots);
        live
    }

    /// Scores the live buffered rows at `positions` and pushes them.
    fn score(&mut self, positions: &[usize]) {
        if positions.is_empty() {
            return;
        }
        drtopk_obs::metrics()
            .dynamic_buffer_scanned
            .add(positions.len() as u64);
        self.scored += positions.len() as u64;
        let buffer = &self.dynamic.buffer;
        self.buffered.extend(positions.iter().map(|&pos| {
            let (handle, row) = &buffer[pos];
            Reverse(Buffered {
                score: self.w.score(row),
                handle: *handle,
                pos,
            })
        }));
    }

    /// The next entry, and whether it is the next buffered row. `None`
    /// once the stream ended.
    fn peek(&self) -> Option<(Head, bool)> {
        if self.left == 0 {
            return None;
        }
        let indexed = self.cursor.head().map(|e| Head {
            score: e.score,
            handle: self.handle(e),
        });
        let buffered = self.buffered.peek().map(|Reverse(b)| Head {
            score: b.score,
            handle: Some(b.handle),
        });
        match (indexed, buffered) {
            (Some(i), Some(b)) if b < i => Some((b, true)),
            (Some(i), _) => Some((i, false)),
            (None, b) => b.map(|b| (b, true)),
        }
    }

    /// A popped entry's handle; `None` for a pseudo-tuple.
    fn handle(&self, e: Entry) -> Option<Handle> {
        e.real
            .then(|| self.dynamic.indexed_handles[e.orig as usize])
    }

    /// The next entry's merge key; `None` once the stream ended.
    pub(crate) fn head(&self) -> Option<Head> {
        self.peek().map(|(head, _)| head)
    }

    /// The budget's verdict before the next step: its cost cap against
    /// this stream's traversal, its clock paced by the steps taken.
    pub(crate) fn tripped(&self, budget: &QueryBudget) -> Option<TruncateReason> {
        budget.tripped(&self.cursor.cost(), self.steps)
    }

    /// Pops the head. `None` once the stream ended; `Some(None)` for an
    /// entry that is no live answer (a pseudo-tuple or a tombstone).
    pub(crate) fn step(&mut self) -> Option<Option<(f64, Handle)>> {
        let (_, buffered) = self.peek()?;
        self.steps += 1;
        let hit = if buffered {
            let Reverse(b) = self.buffered.pop()?;
            let dynamic = self.dynamic;
            self.score(&dynamic.forest.children[b.pos]);
            Some((b.score, b.handle))
        } else {
            let e = self.cursor.step()?;
            self.handle(e)
                .filter(|h| !self.dynamic.tombstones.contains(h))
                .map(|h| (e.score, h))
        };
        self.left -= usize::from(hit.is_some());
        Some(hit)
    }

    /// Tuples scored so far: the buffered rows and the traversal.
    pub(crate) fn cost(&self) -> Cost {
        let mut cost = Cost {
            evaluated: self.scored,
            pseudo_evaluated: 0,
        };
        cost.merge(&self.cursor.cost());
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtopk_common::{Distribution, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// Oracle: a plain map of live handles -> rows.
    struct Oracle {
        live: HashMap<Handle, Vec<f64>>,
    }

    impl Oracle {
        fn topk(&self, w: &Weights, k: usize) -> Vec<Handle> {
            let mut v: Vec<(f64, Handle)> = self
                .live
                .iter()
                .map(|(&h, row)| (w.score(row), h))
                .collect();
            v.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
            v.truncate(k);
            v.into_iter().map(|(_, h)| h).collect()
        }
    }

    #[test]
    fn mixed_workload_matches_oracle() {
        let d = 3;
        let rel = WorkloadSpec::new(Distribution::Independent, d, 200, 5).generate();
        let mut dynamic = DynamicIndex::new(&rel, DlOptions::dl_plus(), 0.3);
        let mut oracle = Oracle {
            live: rel
                .iter()
                .map(|(t, row)| (t as Handle, row.to_vec()))
                .collect(),
        };
        let mut rng = StdRng::seed_from_u64(31);
        let mut known: Vec<Handle> = oracle.live.keys().copied().collect();
        for step in 0..400 {
            let r: f64 = rng.gen();
            if r < 0.5 {
                let row: Vec<f64> = (0..d).map(|_| rng.gen_range(0.001..0.999)).collect();
                let h = dynamic.insert(&row).unwrap();
                oracle.live.insert(h, row);
                known.push(h);
            } else if r < 0.75 && !known.is_empty() {
                let h = known[rng.gen_range(0..known.len())];
                let was_live = oracle.live.remove(&h).is_some();
                assert_eq!(dynamic.delete(h), was_live, "delete({h}) at step {step}");
            } else {
                let k = rng.gen_range(1..=15);
                let w = Weights::random(d, &mut rng);
                let (got, _) = dynamic.topk(&w, k);
                assert_eq!(got, oracle.topk(&w, k), "step {step} k={k}");
            }
            assert_eq!(dynamic.len(), oracle.live.len(), "len at step {step}");
        }
        assert!(dynamic.rebuilds() >= 1, "workload must trigger rebuilds");
    }

    #[test]
    fn get_and_handle_stability() {
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 100, 2).generate();
        let mut dynamic = DynamicIndex::new(&rel, DlOptions::dl(), 0.2);
        let row = vec![0.25, 0.75];
        let h = dynamic.insert(&row).unwrap();
        assert_eq!(dynamic.get(h), Some(row.as_slice()));
        dynamic.compact();
        assert_eq!(
            dynamic.get(h),
            Some(row.as_slice()),
            "handles survive rebuilds"
        );
        assert!(dynamic.delete(h));
        assert_eq!(dynamic.get(h), None);
        assert!(!dynamic.delete(h), "double delete is a no-op");
    }

    #[test]
    fn rejects_bad_inserts() {
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 10, 1).generate();
        let mut dynamic = DynamicIndex::new(&rel, DlOptions::dl(), 0.2);
        assert!(dynamic.insert(&[0.5]).is_err());
        assert!(dynamic.insert(&[0.5, 1.5]).is_err());
        assert!(dynamic.insert(&[0.5, f64::NAN]).is_err());
    }

    #[test]
    fn state_roundtrip_is_bit_identical() {
        let d = 3;
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, d, 150, 9).generate();
        let mut dynamic = DynamicIndex::new(&rel, DlOptions::dl_plus(), 0.5);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..40 {
            let row: Vec<f64> = (0..d).map(|_| rng.gen_range(0.001..0.999)).collect();
            dynamic.insert(&row).unwrap();
        }
        for h in [3u64, 17, 42, 151, 160] {
            dynamic.delete(h);
        }
        let state = dynamic.to_state();
        let back = DynamicIndex::from_state(&state, DlOptions::dl_plus(), 0.5).unwrap();
        assert_eq!(back.len(), dynamic.len());
        assert_eq!(back.next_handle(), dynamic.next_handle());
        for _ in 0..20 {
            let w = Weights::random(d, &mut rng);
            let k = rng.gen_range(1..=25);
            let (a, ca) = dynamic.topk(&w, k);
            let (b, cb) = back.topk(&w, k);
            assert_eq!(a, b, "answers must survive the state roundtrip");
            assert_eq!(ca, cb, "costs must survive the state roundtrip");
        }
        // And the state itself round-trips through the restored index.
        assert_eq!(back.to_state(), state);
    }

    #[test]
    fn replay_insert_enforces_handle_discipline() {
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 20, 3).generate();
        let mut dynamic = DynamicIndex::new(&rel, DlOptions::dl(), 5.0);
        assert_eq!(dynamic.next_handle(), 20);
        // Replay with a gap (handle 25 skips 20..25).
        dynamic.replay_insert(25, &[0.1, 0.9]).unwrap();
        assert_eq!(dynamic.next_handle(), 26);
        assert_eq!(dynamic.get(25), Some([0.1, 0.9].as_slice()));
        // A stale handle collides with already-assigned space.
        assert!(matches!(
            dynamic.replay_insert(10, &[0.2, 0.2]),
            Err(Error::Invalid(_))
        ));
        // Invalid rows are rejected before any mutation.
        assert!(dynamic.replay_insert(30, &[2.0, 0.5]).is_err());
        assert_eq!(dynamic.next_handle(), 26);
    }

    #[test]
    fn from_state_rejects_inconsistent_states() {
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 30, 5).generate();
        let mut dynamic = DynamicIndex::new(&rel, DlOptions::dl(), 5.0);
        dynamic.insert(&[0.5, 0.5]).unwrap();
        dynamic.delete(3);
        let state = dynamic.to_state();

        let mut short = state.clone();
        short.indexed_handles.pop();
        assert!(matches!(
            DynamicIndex::from_state(&short, DlOptions::dl(), 0.2),
            Err(Error::Invalid(_))
        ));

        let mut dup = state.clone();
        dup.buffer.push((7, vec![0.1, 0.1]));
        assert!(
            DynamicIndex::from_state(&dup, DlOptions::dl(), 0.2).is_err(),
            "buffered handle shadowing an indexed handle"
        );

        let mut low_next = state.clone();
        low_next.next_handle = 5;
        assert!(matches!(
            DynamicIndex::from_state(&low_next, DlOptions::dl(), 0.2),
            Err(Error::Invalid(_))
        ));

        let mut bad_tomb = state.clone();
        bad_tomb.tombstones.push(state.next_handle + 10);
        assert!(DynamicIndex::from_state(&bad_tomb, DlOptions::dl(), 0.2).is_err());

        let mut bad_row = state.clone();
        bad_row
            .buffer
            .push((state.next_handle - 1 + 1000, vec![0.5]));
        assert!(matches!(
            DynamicIndex::from_state(&bad_row, DlOptions::dl(), 0.2),
            Err(Error::DimensionMismatch { .. }) | Err(Error::Invalid(_))
        ));

        // Options mismatch: the snapshot was built with fine splitting on.
        assert!(matches!(
            DynamicIndex::from_state(&state, DlOptions::dg(), 0.2),
            Err(Error::Invalid(_))
        ));
    }

    #[test]
    fn buffered_row_tying_a_pseudo_tuple_waits_for_its_members() {
        // The skyline is eight copies of one point, so every zero-layer
        // pseudo-tuple's corner is that point and its members tie it. A
        // buffered copy ties them as well and must follow them by handle.
        let d = 3;
        let point = vec![0.1, 0.2, 0.3];
        let mut rng = StdRng::seed_from_u64(12);
        let mut rows = vec![point.clone(); 8];
        rows.extend((0..200).map(|_| (0..d).map(|_| rng.gen_range(0.4..0.99)).collect()));
        let rel = Relation::from_rows(d, &rows).unwrap();
        let mut dynamic = DynamicIndex::new(&rel, DlOptions::dl_plus(), 5.0);
        assert!(dynamic.index.stats().pseudo_tuples > 0, "a zero layer");
        let h = dynamic.insert(&point).unwrap();
        let (got, _) = dynamic.topk(&Weights::uniform(d), 10);
        assert_eq!(got[..9], [0, 1, 2, 3, 4, 5, 6, 7, h]);
    }

    /// The forest recomputed from the live buffered rows alone: the
    /// roots, and each position's children (each live row's oldest older
    /// live dominator is its parent).
    fn forest_from_scratch(dynamic: &DynamicIndex) -> (Vec<usize>, Vec<Vec<usize>>) {
        let live = |pos: usize| !dynamic.tombstones.contains(&dynamic.buffer[pos].0);
        let row = |pos: usize| dynamic.buffer[pos].1.as_slice();
        let mut roots = Vec::new();
        let mut children = vec![Vec::new(); dynamic.buffer.len()];
        for c in (0..dynamic.buffer.len()).filter(|&c| live(c)) {
            match (0..c).find(|&p| live(p) && dominates(row(p), row(c))) {
                Some(p) => children[p].push(c),
                None => roots.push(c),
            }
        }
        (roots, children)
    }

    #[test]
    fn forest_is_a_function_of_the_live_buffered_rows() {
        let d = 2;
        let rel = WorkloadSpec::new(Distribution::Independent, d, 50, 4).generate();
        let mut dynamic = DynamicIndex::new(&rel, DlOptions::dl_plus(), 10.0);
        let mut rng = StdRng::seed_from_u64(0xF02E);
        for step in 0..600 {
            let buffered: Vec<Handle> = dynamic.buffer.iter().map(|&(h, _)| h).collect();
            if rng.gen_bool(0.6) || buffered.is_empty() {
                // A coarse grid, so duplicates and ties are common.
                let row: Vec<f64> = (0..d)
                    .map(|_| f64::from(rng.gen_range(0..6u8)) / 5.0)
                    .collect();
                dynamic.insert(&row).unwrap();
            } else {
                dynamic.delete(buffered[rng.gen_range(0..buffered.len())]);
            }
            let (roots, children) = forest_from_scratch(&dynamic);
            let forest = &dynamic.forest;
            assert_eq!(forest.roots, roots, "roots at step {step}");
            for (p, want) in children.iter().enumerate() {
                let mut got = forest.children.get(p).cloned().unwrap_or_default();
                got.sort_unstable();
                assert_eq!(&got, want, "children of {p} at step {step}");
            }
        }
        let back = DynamicIndex::from_state(&dynamic.to_state(), DlOptions::dl_plus(), 10.0);
        let back = back.unwrap();
        assert_eq!(
            back.forest.roots, dynamic.forest.roots,
            "from_state rebuilds it"
        );
        assert_eq!(
            dynamic.clone().forest.roots,
            dynamic.forest.roots,
            "clone copies it"
        );
        dynamic.compact();
        assert!(dynamic.forest.roots.is_empty() && dynamic.forest.children.is_empty());
    }

    #[test]
    fn newer_dominating_row_stays_a_root_beside_the_older_row() {
        // The newer row dominates the older one, but f64 rounding gives
        // both the same score: the older row's smaller handle goes first,
        // so the newer row may not gate it.
        let d = 2;
        let rel = Relation::from_rows(d, &[vec![0.9, 0.9], vec![0.8, 0.95]]).unwrap();
        let mut dynamic = DynamicIndex::new(&rel, DlOptions::dl_plus(), 5.0);
        let older = [0.25, 0.5];
        let newer = [0.25, f64::from_bits(0.5f64.to_bits() - 1)];
        let w = Weights::uniform(d);
        assert!(dominates(&newer, &older));
        assert_eq!(w.score(&newer), w.score(&older), "a rounding tie");
        let a = dynamic.insert(&older).unwrap();
        let b = dynamic.insert(&newer).unwrap();
        assert_eq!(dynamic.forest.roots, [0, 1], "both rows are roots");
        assert_eq!(dynamic.forest.children, [vec![], vec![]]);
        assert_eq!(dynamic.topk(&w, 3).0, [a, b, 1]);
        // Deleting the older row leaves the newer one a root.
        assert!(dynamic.delete(a));
        assert_eq!(dynamic.forest.roots, [1]);
        assert_eq!(dynamic.topk(&w, 2).0, [b, 1]);
    }

    #[test]
    fn delete_everything_then_query() {
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 30, 7).generate();
        let mut dynamic = DynamicIndex::new(&rel, DlOptions::dl(), 5.0);
        for h in 0..30u64 {
            assert!(dynamic.delete(h));
        }
        assert!(dynamic.is_empty());
        let w = Weights::uniform(2);
        assert!(dynamic.topk(&w, 5).0.is_empty());
        let h = dynamic.insert(&[0.4, 0.6]).unwrap();
        assert_eq!(dynamic.topk(&w, 5).0, vec![h]);
    }
}
