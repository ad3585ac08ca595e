//! Weight-space result caching: the cheapest query is the one never
//! traversed.
//!
//! Chester et al. (*Indexing Reverse Top-k Queries*) observe that the
//! weight simplex partitions into cells whose top-k answer is constant.
//! Real traffic repeats heavily in weight space, so a [`ResultCache`]
//! layered in front of `topk` converts repeated (or merely *nearby*)
//! weight vectors into O(k) — or zero — work:
//!
//! * **d = 2, exact zero layer present**: entries are keyed by the
//!   [`Zero2d`] facet-slope cell containing `w` (the reverse top-*1* cell
//!   the index already computes). At fill time the cache derives, in
//!   closed form, the exact `w₁` interval on which the cached answer
//!   *list* (set **and** order) provably stays the answer; a hit is an
//!   interval-containment check and returns the stored ids verbatim —
//!   zero traversal, zero rescoring, reported cost `0`.
//! * **d ≥ 3 (or 2-d without the exact zero layer)**: entries are keyed
//!   by a quantized weight direction and validated per hit with a
//!   certificate: the cached k tuples are rescored under the new `w`
//!   (reported cost `k`), and the hit is accepted only if the stored
//!   (k+1)-th score bound proves no outside tuple can displace the cached
//!   set (see [certificate rule](#certificate-rule) below).
//!
//! Misses and certificate rejections fall back to the real traversal with
//! a `k+1` fetch (the extra answer is the next entry's barrier), so
//! **answers are bit-identical to uncached `topk` by construction** —
//! hits are only served when provably equal, everything else is computed
//! by the index itself. Reported *costs* differ by documented semantics:
//! `0` on a 2-d cell hit, `k` on a certified hit, and the cost of the
//! `k+1`-fetch traversal on a miss.
//!
//! # Certificate rule
//!
//! Let `w₀` be the weights that populated an entry, `B` the score of the
//! (k+1)-th tuple under `w₀` (`+∞` when fewer than k+1 tuples exist), and
//! `neg = Σⱼ max(0, w₀ⱼ − wⱼ)`. Every tuple `t` outside the cached set
//! satisfies `s_t(w₀) ≥ B` and, since attributes live in `[0,1]`,
//! `s_t(w) ≥ s_t(w₀) − neg ≥ B − neg`. The hit is accepted iff
//! `max_i s_i(w) < B − neg − SLACK` over the rescored cached tuples: then
//! no outside tuple can score at or below any cached one, so the cached
//! set is exactly the top-k and the rescored `(score, id)` sort reproduces
//! the traversal's order. [`SLACK`] (1e-12) absorbs f64 evaluation noise
//! (≤ ~1e-14 here), keeping the accept decision sound against the actual
//! floating-point scores the traversal computes.
//!
//! The 2-d interval is the same argument solved analytically: order
//! constraints (adjacent cached scores are linear in `w₁`, so each pair
//! crossing bounds the interval) intersected with the barrier constraint
//! `s_i(w₁) < B − |w₁ − w₀₁| − SLACK` in closed form.
//!
//! # Invalidation contract
//!
//! Entries are stamped with the cache's generation counter;
//! [`ResultCache::invalidate_all`] bumps it in O(1) and stale entries are
//! treated as misses (and preferentially evicted). A cache attached to a
//! [`DynamicIndex`](crate::DynamicIndex) is bumped by every mutation —
//! insert, replayed insert, delete, compaction/rebuild — and by the
//! attachment itself, so recovery via `from_state` plus WAL replay can
//! never serve answers from a previous life of the index. One cache
//! serves exactly one logical index: attaching it elsewhere (or sharing
//! it between an index and its clone) would let entries from one index
//! answer queries on another.
//!
//! # Concurrency
//!
//! The table is a fixed array of `RwLock`-protected shards selected by
//! key hash: lookups take a read lock (read-mostly fast path — a batch of
//! workers hitting the same hot cells never serializes), stores take the
//! write lock of one shard, invalidation is a single atomic bump.

use crate::index::DualLayerIndex;
use crate::query::{QueryScratch, TopkResult};
use crate::zero::Zero2d;
use drtopk_common::{Cost, TupleId, Weights};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::RwLock;

/// Soundness margin subtracted from every certificate threshold. The
/// certificate compares quantities the traversal computes in f64; the
/// accumulated rounding of a d ≤ 8 dot product over `[0,1]` values is
/// below 1e-14, so a 1e-12 margin keeps "provably undisplaced" true for
/// the *floating-point* scores while rejecting only a measure-zero sliver
/// of weight space near answer boundaries.
pub const SLACK: f64 = 1e-12;

/// Sizing and keying knobs for a [`ResultCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Lock shards (rounded up to a power of two, min 1). More shards =
    /// less write contention under concurrent batch workers.
    pub shards: usize,
    /// Total entry budget across all shards; each shard evicts its oldest
    /// entry once it holds `capacity / shards`.
    pub capacity: usize,
    /// Entries retained per key (a hot cell can hold answers for several
    /// distinct weight vectors and several k values map to distinct keys).
    /// Must cover the number of *distinct* recurring weights a single hot
    /// cell serves — below that, round-robin repetition evicts every
    /// entry before its weight recurs and the hit rate collapses. Cell
    /// lookups scan these entries at O(1) each, so a generous cap costs
    /// little; certificate lookups pay O(k·d) per scanned entry, which
    /// `max_k` bounds.
    pub entries_per_key: usize,
    /// Quantization grid per weight coordinate for the d ≥ 3 key
    /// (clamped to `2..=4096`). Coarser grids put more weights in one
    /// bucket — more certificate attempts, more replacement churn.
    pub quant: u32,
    /// Queries with `min(k, n)` above this bypass the cache entirely
    /// (entries store k+1 rows of coordinates; unbounded k would make
    /// them arbitrarily large).
    pub max_k: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 16,
            capacity: 4096,
            entries_per_key: 64,
            quant: 64,
            max_k: 128,
        }
    }
}

/// Monotone counters describing a cache's behaviour (per-instance; the
/// same events also feed the process-wide `drtopk_obs` registry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache (2-d cell hits + certified hits).
    pub hits: u64,
    /// Lookups that fell back to the traversal.
    pub misses: u64,
    /// Candidate entries whose certificate failed to prove the cached set
    /// undisplaced (each also surfaces as part of a miss).
    pub cert_rejects: u64,
    /// Generation bumps ([`ResultCache::invalidate_all`] calls).
    pub invalidations: u64,
    /// Entries written after a miss.
    pub stores: u64,
    /// Entries discarded to per-key or per-shard limits.
    pub evictions: u64,
}

/// How a [`ResultCache`] query was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// 2-d facet-cell hit: stored ids returned verbatim (cost 0).
    Hit2d,
    /// Certificate-validated hit: cached tuples rescored under the new
    /// weights (cost k).
    HitCertified,
    /// No provably-valid entry; answered by the traversal (and stored).
    Miss,
    /// The cache did not apply (k = 0, k above `max_k`, empty index).
    Bypass,
}

/// Result of a cached top-k query against a static index.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedTopk {
    /// Answer tuple ids, ascending by `(score, id)` — bit-identical to
    /// the uncached [`DualLayerIndex::topk`] answer.
    pub ids: Vec<TupleId>,
    /// Reported cost: `0` on a 2-d cell hit, `k` rescores on a certified
    /// hit, the `k+1`-fetch traversal's cost on a miss, the plain
    /// traversal's cost on a bypass.
    pub cost: Cost,
    /// How the answer was produced.
    pub outcome: CacheOutcome,
}

impl CachedTopk {
    /// Whether the answer came from the cache.
    pub fn is_hit(&self) -> bool {
        matches!(
            self.outcome,
            CacheOutcome::Hit2d | CacheOutcome::HitCertified
        )
    }

    /// Drops the outcome, leaving the plain query result.
    pub fn into_result(self) -> TopkResult {
        TopkResult {
            ids: self.ids,
            cost: self.cost,
        }
    }
}

/// Cache key: the weight-space cell a query falls in, plus its k.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum CacheKey {
    /// Exact 2-d facet-slope cell index from [`Zero2d::select`].
    Cell { cell: u32, k: u32 },
    /// Quantized weight direction (one `u16` per coordinate).
    Quant { dir: Box<[u16]>, k: u32 },
}

/// One cached answer: the ids in answer order, their attribute rows
/// (copied at fill time so validation never touches the relation), the
/// (k+1)-th score bound, and — for 2-d cell entries — the certified `w₁`
/// validity interval.
#[derive(Debug, Clone)]
struct Entry {
    generation: u64,
    stamp: u64,
    w0: Box<[f64]>,
    ids: Box<[u64]>,
    coords: Box<[f64]>,
    barrier: f64,
    /// Open `(lo, hi)` interval of `w₁` on which `ids` is provably the
    /// exact answer list; `None` for quantized-direction entries.
    interval: Option<(f64, f64)>,
}

/// Outcome of a raw lookup (ids are `u64` so the same machinery serves
/// static `TupleId`s and dynamic `Handle`s).
#[derive(Debug)]
pub(crate) enum CacheLookup {
    /// 2-d interval hit: the stored answer list, verbatim.
    Hit2d(Vec<u64>),
    /// Certified hit: ids re-sorted under the new weights, plus the
    /// number of rescoring evaluations performed.
    HitCertified(Vec<u64>, u64),
    /// No valid entry.
    Miss,
}

type Shard = HashMap<CacheKey, Vec<Entry>>;

/// A sharded, generation-stamped weight-space result cache. See the
/// [module docs](self) for the hit/certificate/invalidation contract.
///
/// ```
/// use drtopk_common::{Distribution, Weights, WorkloadSpec};
/// use drtopk_core::{CacheConfig, DlOptions, DualLayerIndex, ResultCache};
///
/// let rel = WorkloadSpec::new(Distribution::Independent, 2, 400, 7).generate();
/// let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());
/// let cache = ResultCache::new(CacheConfig::default());
/// let w = Weights::new(vec![0.3, 0.7]).unwrap();
/// let miss = cache.topk(&idx, &w, 10);
/// let hit = cache.topk(&idx, &w, 10);
/// assert_eq!(miss.ids, idx.topk(&w, 10).ids);
/// assert_eq!(hit.ids, miss.ids);
/// assert!(hit.is_hit());
/// assert_eq!(hit.cost.total(), 0, "2-d cell hits score nothing");
/// ```
#[derive(Debug)]
pub struct ResultCache {
    cfg: CacheConfig,
    shards: Box<[RwLock<Shard>]>,
    generation: AtomicU64,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    cert_rejects: AtomicU64,
    invalidations: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::new(CacheConfig::default())
    }
}

impl ResultCache {
    /// An empty cache with the given configuration.
    pub fn new(mut cfg: CacheConfig) -> Self {
        cfg.shards = cfg.shards.clamp(1, 1024).next_power_of_two();
        cfg.capacity = cfg.capacity.max(cfg.shards);
        cfg.entries_per_key = cfg.entries_per_key.max(1);
        cfg.quant = cfg.quant.clamp(2, 4096);
        let shards = (0..cfg.shards)
            .map(|_| RwLock::new(Shard::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ResultCache {
            cfg,
            shards,
            generation: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            cert_rejects: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The active configuration (after clamping).
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The current generation stamp.
    pub fn generation(&self) -> u64 {
        self.generation.load(Relaxed)
    }

    /// Invalidates every entry in O(1) by bumping the generation; stale
    /// entries are treated as misses and preferentially evicted.
    pub fn invalidate_all(&self) {
        self.generation.fetch_add(1, Relaxed);
        self.invalidations.fetch_add(1, Relaxed);
        drtopk_obs::metrics().cache_invalidations.add(1);
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        for s in self.shards.iter() {
            s.write().unwrap().clear();
        }
    }

    /// Live entry count across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap().values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Whether no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the per-instance counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            cert_rejects: self.cert_rejects.load(Relaxed),
            invalidations: self.invalidations.load(Relaxed),
            stores: self.stores.load(Relaxed),
            evictions: self.evictions.load(Relaxed),
        }
    }

    /// Answers `topk(w, k)` through the cache with an internal scratch.
    pub fn topk(&self, idx: &DualLayerIndex, w: &Weights, k: usize) -> CachedTopk {
        let mut scratch = QueryScratch::for_index(idx);
        self.topk_with_scratch(idx, w, k, &mut scratch)
    }

    /// Answers `topk(w, k)` through the cache, reusing the caller's
    /// scratch for the fallback traversal. The returned ids are
    /// bit-identical to `idx.topk(w, k).ids`.
    pub fn topk_with_scratch(
        &self,
        idx: &DualLayerIndex,
        w: &Weights,
        k: usize,
        scratch: &mut QueryScratch,
    ) -> CachedTopk {
        let n = idx.len();
        let k_eff = k.min(n);
        if k_eff == 0 || k_eff > self.cfg.max_k {
            let r = idx.topk_with_scratch(w, k, scratch);
            return CachedTopk {
                ids: r.ids,
                cost: r.cost,
                outcome: CacheOutcome::Bypass,
            };
        }
        let key = self.key_for_parts(idx.dims(), idx.zero2d(), w, k_eff as u32);
        let generation = self.generation();
        match self.lookup_raw(&key, w, idx.dims(), generation) {
            CacheLookup::Hit2d(ids) => CachedTopk {
                ids: ids.into_iter().map(|i| i as TupleId).collect(),
                cost: Cost::new(),
                outcome: CacheOutcome::Hit2d,
            },
            CacheLookup::HitCertified(ids, evals) => CachedTopk {
                ids: ids.into_iter().map(|i| i as TupleId).collect(),
                cost: Cost {
                    evaluated: evals,
                    pseudo_evaluated: 0,
                },
                outcome: CacheOutcome::HitCertified,
            },
            CacheLookup::Miss => {
                // Fetch one extra answer: it is the new entry's barrier.
                let fetch = (k_eff + 1).min(n);
                let r = idx.topk_with_scratch(w, fetch, scratch);
                let barrier = if r.ids.len() > k_eff {
                    w.score(idx.relation().tuple(r.ids[k_eff]))
                } else {
                    f64::INFINITY
                };
                let answer: Vec<TupleId> = r.ids[..k_eff].to_vec();
                let dims = idx.dims();
                let mut coords = Vec::with_capacity(k_eff * dims);
                for &t in &answer {
                    coords.extend_from_slice(idx.relation().tuple(t));
                }
                let ids: Vec<u64> = answer.iter().map(|&t| t as u64).collect();
                self.store_raw(key, generation, w.as_slice(), ids, coords, barrier);
                CachedTopk {
                    ids: answer,
                    cost: r.cost,
                    outcome: CacheOutcome::Miss,
                }
            }
        }
    }

    /// Hit-only probe: returns the answer if a provably-valid entry
    /// exists, without falling back or storing. Budget-guarded callers
    /// use this — a hit is always a *complete* answer that cost at most
    /// k evaluations, a miss proceeds under the budget unchanged.
    pub fn probe(&self, idx: &DualLayerIndex, w: &Weights, k: usize) -> Option<CachedTopk> {
        let n = idx.len();
        let k_eff = k.min(n);
        if k_eff == 0 || k_eff > self.cfg.max_k {
            return None;
        }
        let key = self.key_for_parts(idx.dims(), idx.zero2d(), w, k_eff as u32);
        match self.lookup_raw(&key, w, idx.dims(), self.generation()) {
            CacheLookup::Hit2d(ids) => Some(CachedTopk {
                ids: ids.into_iter().map(|i| i as TupleId).collect(),
                cost: Cost::new(),
                outcome: CacheOutcome::Hit2d,
            }),
            CacheLookup::HitCertified(ids, evals) => Some(CachedTopk {
                ids: ids.into_iter().map(|i| i as TupleId).collect(),
                cost: Cost {
                    evaluated: evals,
                    pseudo_evaluated: 0,
                },
                outcome: CacheOutcome::HitCertified,
            }),
            CacheLookup::Miss => None,
        }
    }

    /// The key for a query: the exact facet cell when the 2-d zero layer
    /// exists, the quantized direction otherwise.
    pub(crate) fn key_for_parts(
        &self,
        dims: usize,
        zero2d: Option<&Zero2d>,
        w: &Weights,
        k: u32,
    ) -> CacheKey {
        if dims == 2 {
            if let Some(z) = zero2d {
                return CacheKey::Cell {
                    cell: z.select(w) as u32,
                    k,
                };
            }
        }
        let q = f64::from(self.cfg.quant);
        let top = (self.cfg.quant - 1) as u16;
        let dir: Box<[u16]> = w
            .as_slice()
            .iter()
            .map(|&x| (((x * q) as u32).min(u32::from(top))) as u16)
            .collect();
        CacheKey::Quant { dir, k }
    }

    /// Looks `key` up and validates candidates against `w`; counts the
    /// outcome. Ids come back as raw `u64` (static `TupleId`s or dynamic
    /// `Handle`s, whatever the caller stored).
    pub(crate) fn lookup_raw(
        &self,
        key: &CacheKey,
        w: &Weights,
        dims: usize,
        generation: u64,
    ) -> CacheLookup {
        let m = drtopk_obs::metrics();
        let shard = self.shards[self.shard_of(key)].read().unwrap();
        let mut rejects = 0u64;
        let result = (|| {
            let entries = shard.get(key)?;
            // Oldest first: under a skewed workload the most popular
            // weights miss — and therefore store — earliest, so a forward
            // scan finds hot entries in the first few probes. Stale
            // entries are skipped by the generation check either way, and
            // every valid entry certifies the same answer, so scan order
            // never changes results, only hit latency.
            for e in entries.iter() {
                if e.generation != generation {
                    continue;
                }
                match e.interval {
                    Some((lo, hi)) => {
                        let w1 = w.as_slice()[0];
                        if lo < w1 && w1 < hi {
                            return Some(CacheLookup::Hit2d(e.ids.to_vec()));
                        }
                    }
                    None => match certify(e, w, dims) {
                        Some(ids) => {
                            let evals = e.ids.len() as u64;
                            return Some(CacheLookup::HitCertified(ids, evals));
                        }
                        None => rejects += 1,
                    },
                }
            }
            None
        })();
        drop(shard);
        if rejects > 0 {
            self.cert_rejects.fetch_add(rejects, Relaxed);
            m.cache_cert_rejects.add(rejects);
        }
        match result {
            Some(hit) => {
                self.hits.fetch_add(1, Relaxed);
                m.cache_hits.add(1);
                hit
            }
            None => {
                self.misses.fetch_add(1, Relaxed);
                m.cache_misses.add(1);
                CacheLookup::Miss
            }
        }
    }

    /// Inserts a freshly-computed answer. `coords` is `ids.len()` rows in
    /// answer order; `barrier` is the (k+1)-th score under `w0` (`+∞`
    /// when the answer exhausts the data).
    pub(crate) fn store_raw(
        &self,
        key: CacheKey,
        generation: u64,
        w0: &[f64],
        ids: Vec<u64>,
        coords: Vec<f64>,
        barrier: f64,
    ) {
        let interval = match key {
            CacheKey::Cell { .. } => {
                let iv = interval_2d(w0[0], &coords, barrier);
                if iv.0 >= iv.1 {
                    // Degenerate (a tie exactly at w0): the entry could
                    // never hit, so don't spend a slot on it.
                    return;
                }
                Some(iv)
            }
            CacheKey::Quant { .. } => None,
        };
        let entry = Entry {
            generation,
            stamp: self.tick.fetch_add(1, Relaxed),
            w0: w0.into(),
            ids: ids.into_boxed_slice(),
            coords: coords.into_boxed_slice(),
            barrier,
            interval,
        };
        let per_shard_cap = (self.cfg.capacity / self.cfg.shards).max(1);
        let mut evicted = 0u64;
        let mut shard = self.shards[self.shard_of(&key)].write().unwrap();
        let shard_len: usize = shard.values().map(Vec::len).sum();
        if shard_len >= per_shard_cap {
            evicted += evict_oldest(&mut shard, generation);
        }
        let slot = shard.entry(key).or_default();
        if slot.len() >= self.cfg.entries_per_key {
            // Prefer dropping a stale entry, else the oldest.
            let victim = slot
                .iter()
                .position(|e| e.generation != generation)
                .or_else(|| {
                    slot.iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.stamp)
                        .map(|(i, _)| i)
                });
            if let Some(i) = victim {
                slot.remove(i);
                evicted += 1;
            }
        }
        slot.push(entry);
        drop(shard);
        self.stores.fetch_add(1, Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Relaxed);
        }
    }

    fn shard_of(&self, key: &CacheKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) & (self.cfg.shards - 1)
    }
}

/// Removes the oldest (stale-first) entry from a shard; returns how many
/// were dropped (0 only when the shard is empty).
fn evict_oldest(shard: &mut Shard, generation: u64) -> u64 {
    let victim = shard
        .iter()
        .flat_map(|(k, v)| v.iter().map(move |e| (k, e)))
        .min_by_key(|(_, e)| (e.generation == generation, e.stamp))
        .map(|(k, e)| (k.clone(), e.stamp));
    let Some((key, stamp)) = victim else {
        return 0;
    };
    let mut removed = 0;
    if let Some(v) = shard.get_mut(&key) {
        if let Some(i) = v.iter().position(|e| e.stamp == stamp) {
            v.remove(i);
            removed = 1;
        }
        if v.is_empty() {
            shard.remove(&key);
        }
    }
    removed
}

/// The d ≥ 3 certificate (module docs): rescores the cached tuples under
/// `w` and accepts iff every one scores strictly below the displaced
/// bound `B − neg − SLACK`. Returns the ids in the exact `(score, id)`
/// order the traversal would emit.
fn certify(e: &Entry, w: &Weights, dims: usize) -> Option<Vec<u64>> {
    let ws = w.as_slice();
    let mut neg = 0.0f64;
    for (w0j, wj) in e.w0.iter().zip(&ws[..dims]) {
        let d = w0j - wj;
        if d > 0.0 {
            neg += d;
        }
    }
    let bound = e.barrier - neg - SLACK;
    let mut scored: Vec<(f64, u64)> = Vec::with_capacity(e.ids.len());
    let mut max = f64::NEG_INFINITY;
    for (i, &id) in e.ids.iter().enumerate() {
        let s = w.score(&e.coords[i * dims..(i + 1) * dims]);
        if s > max {
            max = s;
        }
        scored.push((s, id));
    }
    // A NaN max must reject: only a proven `max < bound` accepts.
    if max.partial_cmp(&bound) != Some(std::cmp::Ordering::Less) {
        return None;
    }
    scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    Some(scored.into_iter().map(|(_, id)| id).collect())
}

/// Closed-form 2-d validity interval: the open range of `w₁` on which the
/// answer list in `coords` (answer order, rows of `[x, y]`) provably
/// remains the exact `(score, id)`-ordered top-k.
///
/// With `w₂ = 1 − w₁`, every score is the line `s(w₁) = y + w₁·(x − y)`.
/// Two families of constraints bound the interval around `w₀₁`:
///
/// * **order**: adjacent answers must not swap — each non-parallel pair
///   contributes its crossing point (shrunk by `SLACK / |Δslope|` so the
///   float-evaluated separation stays above noise);
/// * **barrier**: every cached line must stay below
///   `B − |w₁ − w₀₁| − SLACK`, the bound no outside tuple can cross
///   (solved separately left and right of `w₀₁`; slopes of `[0,1]²`
///   tuples lie in `[−1, 1]`, so the degenerate `±1` slopes reduce to
///   `w₁`-independent checks).
///
/// Parallel cached lines never constrain: equal lines tie everywhere and
/// keep their id order; distinct parallel lines keep their score order.
fn interval_2d(w0_1: f64, coords: &[f64], barrier: f64) -> (f64, f64) {
    let k = coords.len() / 2;
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for i in 0..k.saturating_sub(1) {
        let (ca, ma) = (coords[2 * i + 1], coords[2 * i] - coords[2 * i + 1]);
        let (cb, mb) = (coords[2 * i + 3], coords[2 * i + 2] - coords[2 * i + 3]);
        let dm = ma - mb;
        if dm == 0.0 {
            continue;
        }
        let x = (cb - ca) / dm;
        let margin = SLACK / dm.abs();
        if dm > 0.0 {
            hi = hi.min(x - margin);
        } else {
            lo = lo.max(x + margin);
        }
    }
    if barrier.is_finite() {
        for i in 0..k {
            let (c, m) = (coords[2 * i + 1], coords[2 * i] - coords[2 * i + 1]);
            let dr = m + 1.0;
            if dr > 0.0 {
                hi = hi.min((barrier + w0_1 - c - SLACK) / dr);
            } else if c + SLACK >= barrier + w0_1 {
                hi = hi.min(w0_1);
            }
            let dl = 1.0 - m;
            if dl > 0.0 {
                lo = lo.max((c + w0_1 - barrier + SLACK) / dl);
            } else if c + SLACK >= barrier - w0_1 {
                lo = lo.max(w0_1);
            }
        }
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::DlOptions;
    use drtopk_common::{topk_bruteforce, Distribution, WorkloadSpec, ZipfWeightWorkload};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture(d: usize, n: usize) -> DualLayerIndex {
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, d, n, 11 + d as u64).generate();
        DualLayerIndex::build(&rel, DlOptions::dl_plus())
    }

    #[test]
    fn repeat_queries_hit_and_stay_bit_identical() {
        for d in [2usize, 3, 5] {
            let idx = fixture(d, 400);
            let cache = ResultCache::default();
            let mut rng = StdRng::seed_from_u64(4 + d as u64);
            for q in 0..30 {
                let w = Weights::random(d, &mut rng);
                for pass in 0..2 {
                    let got = cache.topk(&idx, &w, 10);
                    let want = idx.topk(&w, 10);
                    assert_eq!(got.ids, want.ids, "d={d} q={q} pass={pass}");
                    if pass == 1 {
                        assert!(got.is_hit(), "d={d} q={q}: exact repeat must hit");
                        if d == 2 {
                            assert_eq!(got.outcome, CacheOutcome::Hit2d);
                            assert_eq!(got.cost.total(), 0, "2-d hits are free");
                        } else {
                            assert_eq!(got.outcome, CacheOutcome::HitCertified);
                            assert_eq!(got.cost.evaluated, 10, "certified hits rescore k");
                        }
                    }
                }
            }
            let s = cache.stats();
            assert!(s.hits >= 30, "d={d}: {s:?}");
        }
    }

    #[test]
    fn nearby_weights_hit_the_2d_interval_without_traversal() {
        let idx = fixture(2, 500);
        let cache = ResultCache::default();
        let w = Weights::new(vec![0.40, 0.60]).unwrap();
        assert_eq!(cache.topk(&idx, &w, 5).outcome, CacheOutcome::Miss);
        // A weight a hair away lands in the same certified interval.
        let w2 = Weights::new(vec![0.4000001, 0.5999999]).unwrap();
        let got = cache.topk(&idx, &w2, 5);
        assert_eq!(got.ids, idx.topk(&w2, 5).ids);
        assert_eq!(got.outcome, CacheOutcome::Hit2d, "{:?}", cache.stats());
    }

    #[test]
    fn sweep_never_diverges_from_bruteforce() {
        // A dense 2-d sweep crosses every interval boundary; a certified
        // hit must never survive past the point where the answer changes.
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 300, 5).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());
        let cache = ResultCache::default();
        for k in [1usize, 4, 17] {
            for step in 1..400 {
                let w1 = step as f64 / 400.0;
                let w = Weights::new(vec![w1, 1.0 - w1]).unwrap();
                let got = cache.topk(&idx, &w, k);
                assert_eq!(got.ids, topk_bruteforce(&rel, &w, k), "k={k} w1={w1}");
            }
        }
        let s = cache.stats();
        assert!(s.hits > 0, "sweep must produce some interval hits: {s:?}");
        assert!(s.misses > 0, "sweep must cross cell boundaries: {s:?}");
    }

    #[test]
    fn quant_certificate_rejects_displacing_weights() {
        // d = 3: weights far apart land in different quant buckets, but
        // two weights in the SAME bucket with different answers must be
        // separated by the certificate, never by luck.
        let idx = fixture(3, 600);
        // One coarse bucket for everything: quant = 2 maximizes collisions.
        let cache = ResultCache::new(CacheConfig {
            quant: 2,
            ..CacheConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(99);
        for q in 0..200 {
            let w = Weights::random(3, &mut rng);
            let got = cache.topk(&idx, &w, 8);
            assert_eq!(got.ids, idx.topk(&w, 8).ids, "q={q}");
        }
        let s = cache.stats();
        assert!(
            s.cert_rejects > 0,
            "colliding bucket must exercise rejections: {s:?}"
        );
    }

    #[test]
    fn zipf_traffic_hits_across_dimensionalities() {
        for d in [2usize, 3] {
            let idx = fixture(d, 500);
            let cache = ResultCache::default();
            let workload = ZipfWeightWorkload::new(d, 8, 300, 1.0, 42).generate();
            for w in &workload {
                let got = cache.topk(&idx, w, 10);
                assert_eq!(got.ids, idx.topk(w, 10).ids);
            }
            let s = cache.stats();
            assert!(
                s.hits as f64 >= 0.8 * workload.len() as f64,
                "d={d}: zipf pool of 8 must mostly hit: {s:?}"
            );
        }
    }

    #[test]
    fn invalidation_turns_hits_back_into_misses() {
        let idx = fixture(3, 300);
        let cache = ResultCache::default();
        let w = Weights::uniform(3);
        assert_eq!(cache.topk(&idx, &w, 5).outcome, CacheOutcome::Miss);
        assert!(cache.topk(&idx, &w, 5).is_hit());
        cache.invalidate_all();
        let after = cache.topk(&idx, &w, 5);
        assert_eq!(after.outcome, CacheOutcome::Miss, "stale entry served");
        assert_eq!(after.ids, idx.topk(&w, 5).ids);
        assert!(cache.topk(&idx, &w, 5).is_hit(), "restored after refill");
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn bypass_paths_and_k_variants() {
        let idx = fixture(2, 120);
        let cache = ResultCache::new(CacheConfig {
            max_k: 16,
            ..CacheConfig::default()
        });
        let w = Weights::uniform(2);
        assert_eq!(cache.topk(&idx, &w, 0).outcome, CacheOutcome::Bypass);
        assert_eq!(cache.topk(&idx, &w, 50).outcome, CacheOutcome::Bypass);
        assert_eq!(cache.topk(&idx, &w, 50).ids, idx.topk(&w, 50).ids);
        // k > n collapses to k_eff = n and still caches (fits max_k? no:
        // n = 120 > 16 — stays a bypass).
        assert_eq!(cache.topk(&idx, &w, 999).outcome, CacheOutcome::Bypass);
        // Distinct cacheable k values are distinct keys.
        for k in [1usize, 2, 7, 16] {
            assert_eq!(cache.topk(&idx, &w, k).outcome, CacheOutcome::Miss);
            let hit = cache.topk(&idx, &w, k);
            assert!(hit.is_hit(), "k={k}");
            assert_eq!(hit.ids, idx.topk(&w, k).ids, "k={k}");
        }
    }

    #[test]
    fn capacity_is_bounded_and_eviction_counted() {
        let idx = fixture(3, 400);
        let cache = ResultCache::new(CacheConfig {
            shards: 2,
            capacity: 32,
            entries_per_key: 2,
            quant: 4096,
            ..CacheConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..400 {
            let w = Weights::random(3, &mut rng);
            cache.topk(&idx, &w, 5);
        }
        assert!(
            cache.len() <= 32 + 2,
            "len {} exceeds capacity + one per-shard overshoot",
            cache.len()
        );
        assert!(cache.stats().evictions > 0);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn probe_never_stores() {
        let idx = fixture(2, 200);
        let cache = ResultCache::default();
        let w = Weights::uniform(2);
        assert!(cache.probe(&idx, &w, 5).is_none());
        assert!(cache.is_empty(), "probe must not populate");
        cache.topk(&idx, &w, 5);
        let hit = cache.probe(&idx, &w, 5).expect("filled entry must probe");
        assert_eq!(hit.ids, idx.topk(&w, 5).ids);
    }

    #[test]
    fn concurrent_lookups_and_stores_stay_correct() {
        let idx = fixture(3, 500);
        let cache = ResultCache::default();
        let workload = ZipfWeightWorkload::new(3, 12, 64, 1.0, 3).generate();
        let expected: Vec<Vec<TupleId>> = workload.iter().map(|w| idx.topk(w, 10).ids).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut scratch = QueryScratch::for_index(&idx);
                    for (w, want) in workload.iter().zip(&expected) {
                        let got = cache.topk_with_scratch(&idx, w, 10, &mut scratch);
                        assert_eq!(&got.ids, want);
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 4 * 64);
        assert!(s.hits > 0);
    }

    #[test]
    fn interval_2d_brackets_the_fill_weight() {
        // Two answers and a barrier, hand-checkable: lines y + w1(x-y).
        // b = (0.5, 0.2): s = 0.2 + 0.3 w1; a = (0.1, 0.5): s = 0.5 - 0.4 w1.
        // They cross at w1 = 3/7; b scores below a left of it, so the
        // answer order at the fill weight w1 = 0.2 is [b, a]. Barrier
        // B = 0.6.
        let coords = [0.5, 0.2, 0.1, 0.5];
        let (lo, hi) = interval_2d(0.2, &coords, 0.6);
        assert!(
            lo < 0.2 && 0.2 < hi,
            "interval ({lo}, {hi}) must bracket w0"
        );
        assert!(
            hi <= 3.0 / 7.0,
            "order constraint caps hi at the crossing: {hi}"
        );
        // lo comes from a's left barrier constraint:
        // (c + w0 - B) / (1 - m) = (0.5 + 0.2 - 0.6) / 1.4.
        assert!((lo - 0.1 / 1.4).abs() < 1e-9, "lo = {lo}");
        // Without a barrier the order constraint alone remains.
        let (lo_inf, hi_inf) = interval_2d(0.2, &coords, f64::INFINITY);
        assert!(lo_inf == 0.0 && (hi_inf - 3.0 / 7.0).abs() < 1e-9);
        // A barrier equal to the fill-time score produces an empty range.
        let (lo_e, hi_e) = interval_2d(0.2, &[0.1, 0.5], 0.5 - 0.4 * 0.2);
        assert!(lo_e >= hi_e, "tie at w0 must degenerate: ({lo_e}, {hi_e})");
    }
}
