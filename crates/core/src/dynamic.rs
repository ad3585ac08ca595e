//! Dynamic maintenance on top of the (static) dual-resolution index.
//!
//! The paper's index, like Onion and DG, is built once over a frozen
//! relation. Real deployments need inserts and deletes without paying the
//! full rebuild (Table IV) per update. [`DynamicIndex`] follows the
//! classic log-structured pattern:
//!
//! * inserts land in a small unindexed *buffer*, scanned linearly at query
//!   time and merged with the index's answers;
//! * deletes are *tombstones*; the traversal over-fetches to compensate;
//! * once the buffer or tombstone set outgrows `rebuild_threshold`
//!   (a fraction of the indexed size), the index is rebuilt from the live
//!   tuple set.
//!
//! Answers are always exact: differential tests pin them against a
//! brute-force oracle over the live multiset. Ids returned are *handles*
//! (stable across rebuilds), not positions in the current index.

use crate::cache::{CacheLookup, ResultCache};
use crate::index::DualLayerIndex;
use crate::options::DlOptions;
use crate::query::{QueryBudget, TopkResult, TruncateReason};
use crate::snapshot::IndexSnapshot;
use drtopk_common::{Cost, Error, Relation, Weights};
use std::collections::HashSet;
use std::sync::Arc;

/// A stable handle to a tuple inserted into a [`DynamicIndex`].
pub type Handle = u64;

/// An updatable top-k index: a static [`DualLayerIndex`] plus an insert
/// buffer and tombstones.
#[derive(Debug)]
pub struct DynamicIndex {
    opts: DlOptions,
    index: DualLayerIndex,
    /// Handle of each tuple position in the indexed relation.
    indexed_handles: Vec<Handle>,
    /// Buffered (handle, row) inserts, not yet indexed.
    buffer: Vec<(Handle, Vec<f64>)>,
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
            tombstones: self.tombstones.clone(),
            next_handle: self.next_handle,
            rebuild_fraction: self.rebuild_fraction,
            rebuilds: self.rebuilds,
            cache: None,
        }
    }
}

const MIN_REBUILD: usize = 64;

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
    /// Buffered `(handle, row)` inserts not yet indexed.
    pub buffer: Vec<(Handle, Vec<f64>)>,
    /// Deleted handles, sorted ascending.
    pub tombstones: Vec<Handle>,
    /// The next handle to assign.
    pub next_handle: Handle,
}

/// Result of one budget-guarded top-k query over a [`DynamicIndex`]:
/// the same true-prefix contract as [`crate::query::GuardedTopk`], with
/// stable handles for ids.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicGuardedTopk {
    /// Answer prefix, ascending by `(score, handle)`. When `truncated` is
    /// `None` this is the full top-k; otherwise it is the exact top-m for
    /// some m ≤ k.
    pub ids: Vec<Handle>,
    /// Tuples scored before the query stopped (Definition 9).
    pub cost: Cost,
    /// `None` when the query completed; otherwise the tripped limit.
    pub truncated: Option<TruncateReason>,
}

impl DynamicIndex {
    /// Builds over an initial relation. `rebuild_fraction` is the pending-
    /// update fraction that triggers a rebuild (e.g. 0.2).
    pub fn new(rel: &Relation, opts: DlOptions, rebuild_fraction: f64) -> Self {
        let index = DualLayerIndex::build(rel, opts.clone());
        DynamicIndex {
            opts,
            indexed_handles: (0..rel.len() as Handle).collect(),
            next_handle: rel.len() as Handle,
            index,
            buffer: Vec::new(),
            tombstones: HashSet::new(),
            rebuild_fraction: rebuild_fraction.clamp(0.01, 10.0),
            rebuilds: 0,
            cache: None,
        }
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

    /// Detaches and returns the cache, if one was attached.
    pub fn detach_cache(&mut self) -> Option<Arc<ResultCache>> {
        self.cache.take()
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&Arc<ResultCache>> {
        self.cache.as_ref()
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
        self.buffer
            .iter()
            .find(|(bh, _)| *bh == h)
            .map(|(_, row)| row.as_slice())
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
        self.check_row(row)?;
        let h = self.next_handle;
        self.next_handle += 1;
        self.buffer.push((h, row.to_vec()));
        drtopk_obs::metrics().dynamic_inserts.add(1);
        self.touch_cache();
        self.maybe_rebuild();
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
    /// cache fill requires; answers are bit-identical either way. The
    /// stored (k+1)-th *merged* score is a sound barrier: any unfetched
    /// indexed tuple scores at least the traversal's last fetched answer,
    /// which is at least the merged (k+1)-th.
    pub fn topk(&self, w: &Weights, k: usize) -> (Vec<Handle>, Cost) {
        let k_eff = k.min(self.len());
        let mut cost = Cost::new();
        if k_eff == 0 {
            return (Vec::new(), cost);
        }
        let cache = self.cache.as_deref().filter(|c| k_eff <= c.config().max_k);
        let mut fill = None;
        if let Some(c) = cache {
            let key = c.key_for_parts(self.index.dims(), self.index.zero2d(), w, k_eff as u32);
            let generation = c.generation();
            match c.lookup_raw(&key, w, self.index.dims(), generation) {
                CacheLookup::Hit2d(ids) => return (ids, Cost::new()),
                CacheLookup::HitCertified(ids, evals) => {
                    return (
                        ids,
                        Cost {
                            evaluated: evals,
                            pseudo_evaluated: 0,
                        },
                    )
                }
                CacheLookup::Miss => fill = Some((key, generation)),
            }
        }
        // On a cache fill, fetch one extra answer: it is the new entry's
        // barrier (the score no outside tuple can beat).
        let want = if fill.is_some() {
            (k_eff + 1).min(self.len())
        } else {
            k_eff
        };
        // Over-fetch from the index to absorb tombstoned answers. Deleted
        // indexed tuples are at most `tombstones` many.
        let fetch = want + self.tombstones.len();
        let TopkResult { ids, cost: c } = self.index.topk(w, fetch);
        cost.merge(&c);
        let mut merged: Vec<(f64, Handle)> = Vec::with_capacity(ids.len() + self.buffer.len());
        for t in ids {
            let h = self.indexed_handles[t as usize];
            if !self.tombstones.contains(&h) {
                merged.push((w.score(self.index.relation().tuple(t)), h));
            }
        }
        drtopk_obs::metrics()
            .dynamic_buffer_scanned
            .add(self.buffer.len() as u64);
        for (h, row) in &self.buffer {
            if !self.tombstones.contains(h) {
                cost.tick();
                merged.push((w.score(row), *h));
            }
        }
        merged.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        if let (Some((key, generation)), Some(c)) = (fill, cache) {
            let barrier = if merged.len() > k_eff {
                merged[k_eff].0
            } else {
                f64::INFINITY
            };
            let ids: Vec<u64> = merged[..k_eff.min(merged.len())]
                .iter()
                .map(|&(_, h)| h)
                .collect();
            let dims = self.index.dims();
            let mut coords = Vec::with_capacity(ids.len() * dims);
            for &h in &ids {
                coords.extend_from_slice(self.get(h).expect("answer handle is live"));
            }
            c.store_raw(key, generation, w.as_slice(), ids, coords, barrier);
        }
        merged.truncate(k_eff);
        (merged.into_iter().map(|(_, h)| h).collect(), cost)
    }

    /// Budget-guarded top-k over the live tuples, with the true-prefix
    /// partial-result contract of [`DualLayerIndex::topk_guarded`].
    ///
    /// When the static traversal trips the budget after fetching its exact
    /// top-m, the last fetched static entry `(S, h_m)` is a sound barrier:
    /// the traversal's prefix property guarantees every *unfetched* indexed
    /// tuple orders strictly after `(S, h_m)` under `(score, handle)`, so
    /// merged entries at or below that threshold are exactly the true
    /// combined prefix over index + buffer. Entries past the barrier are
    /// discarded rather than returned speculatively.
    ///
    /// With a cache attached the guarded path probes it (hits bypass the
    /// traversal entirely) but never fills it: a truncated answer must not
    /// poison the cache, and the fill's k+1 over-fetch is a cost the
    /// budgeted path should not pay.
    pub fn topk_guarded(&self, w: &Weights, k: usize, budget: &QueryBudget) -> DynamicGuardedTopk {
        if budget.is_unlimited() {
            let (ids, cost) = self.topk(w, k);
            return DynamicGuardedTopk {
                ids,
                cost,
                truncated: None,
            };
        }
        let k_eff = k.min(self.len());
        let mut cost = Cost::new();
        if k_eff == 0 {
            return DynamicGuardedTopk {
                ids: Vec::new(),
                cost,
                truncated: None,
            };
        }
        if let Some(c) = self.cache.as_deref().filter(|c| k_eff <= c.config().max_k) {
            let key = c.key_for_parts(self.index.dims(), self.index.zero2d(), w, k_eff as u32);
            let generation = c.generation();
            match c.lookup_raw(&key, w, self.index.dims(), generation) {
                CacheLookup::Hit2d(ids) => {
                    return DynamicGuardedTopk {
                        ids,
                        cost: Cost::new(),
                        truncated: None,
                    }
                }
                CacheLookup::HitCertified(ids, evals) => {
                    return DynamicGuardedTopk {
                        ids,
                        cost: Cost {
                            evaluated: evals,
                            pseudo_evaluated: 0,
                        },
                        truncated: None,
                    }
                }
                CacheLookup::Miss => {}
            }
        }
        let fetch = k_eff + self.tombstones.len();
        let guarded = self.index.topk_guarded(w, fetch, budget);
        cost.merge(&guarded.cost);
        let truncated_static = guarded.truncated;
        // Barrier: the last *raw* fetched static entry (tombstoned or not)
        // bounds everything the traversal did not fetch.
        let barrier = if truncated_static.is_some() {
            guarded.ids.last().map(|&t| {
                (
                    w.score(self.index.relation().tuple(t)),
                    self.indexed_handles[t as usize],
                )
            })
        } else {
            None
        };
        if truncated_static.is_some() && barrier.is_none() && !self.indexed_handles.is_empty() {
            // Truncated before fetching anything: no sound prefix exists.
            return DynamicGuardedTopk {
                ids: Vec::new(),
                cost,
                truncated: truncated_static,
            };
        }
        let mut merged: Vec<(f64, Handle)> =
            Vec::with_capacity(guarded.ids.len() + self.buffer.len());
        for t in guarded.ids {
            let h = self.indexed_handles[t as usize];
            if !self.tombstones.contains(&h) {
                merged.push((w.score(self.index.relation().tuple(t)), h));
            }
        }
        drtopk_obs::metrics()
            .dynamic_buffer_scanned
            .add(self.buffer.len() as u64);
        for (h, row) in &self.buffer {
            if !self.tombstones.contains(h) {
                cost.tick();
                merged.push((w.score(row), *h));
            }
        }
        merged.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        if let Some((bs, bh)) = barrier {
            merged.retain(|&(s, h)| s < bs || (s == bs && h <= bh));
        }
        merged.truncate(k_eff);
        // A truncated traversal can still leave a complete answer when the
        // sound prefix reaches k: report it as complete.
        let truncated = if merged.len() == k_eff {
            None
        } else {
            truncated_static
        };
        DynamicGuardedTopk {
            ids: merged.into_iter().map(|(_, h)| h).collect(),
            cost,
            truncated,
        }
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
        Ok(DynamicIndex {
            opts,
            index,
            indexed_handles: state.indexed_handles.clone(),
            buffer: state.buffer.clone(),
            tombstones: state.tombstones.iter().copied().collect(),
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
