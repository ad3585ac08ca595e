//! Differential oracle gate for sharded routing: across dimensionality,
//! shard count, and workload shape, the routed answer must be
//! bit-identical to the unsharded dynamic index — and with shards forced
//! down, bit-identical to the unsharded index over the surviving
//! partitions. This is the merge tie-break contract under randomized
//! load; any drift here is a correctness bug, not noise. The frontier's
//! own promises are pinned too: pending updates, pseudo-tuple ties
//! across shards, per-shard cost never above the shard's own top-k, and
//! true prefixes under a cost cap.

use drtopk_common::{Cost, Distribution, Relation, Weights, WorkloadSpec};
use drtopk_core::shard::{shard_of, Lent, ShardAnswer, ShardError};
use drtopk_core::{
    DlOptions, DualLayerIndex, DynamicIndex, Handle, QueryBudget, RouterConfig, ShardProbe,
    ShardRouter, TruncateReason,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{Barrier, Mutex};
use std::thread::ThreadId;

fn build_shards(rel: &Relation, p: usize) -> Vec<DynamicIndex> {
    drtopk_core::partition_relation(rel, p)
        .unwrap()
        .into_iter()
        .map(|(part, handles)| {
            DynamicIndex::with_handles(&part, handles, DlOptions::default(), 0.5).unwrap()
        })
        .collect()
}

fn survivor_oracle(rel: &Relation, p: usize, dead: &[usize]) -> DynamicIndex {
    let dims = rel.dims();
    let mut flat = Vec::new();
    let mut handles = Vec::new();
    for (t, row) in rel.iter() {
        if !dead.contains(&shard_of(t as Handle, p)) {
            flat.extend_from_slice(row);
            handles.push(t as Handle);
        }
    }
    DynamicIndex::with_handles(
        &Relation::from_flat_unchecked(dims, flat),
        handles,
        DlOptions::default(),
        0.5,
    )
    .unwrap()
}

#[test]
fn sharded_matches_unsharded_across_configurations() {
    let configs: [(usize, usize, usize, Distribution); 4] = [
        (2, 300, 2, Distribution::Independent),
        (3, 400, 3, Distribution::Correlated),
        (4, 257, 7, Distribution::AntiCorrelated),
        (2, 64, 5, Distribution::Independent),
    ];
    for (d, n, p, dist) in configs {
        let rel = WorkloadSpec::new(dist, d, n, (d * n + p) as u64).generate();
        let router = ShardRouter::new(build_shards(&rel, p), RouterConfig::default()).unwrap();
        let oracle = DynamicIndex::new(&rel, DlOptions::default(), 0.5);
        let mut rng = StdRng::seed_from_u64(0xD1FF ^ (d as u64) << 8 ^ n as u64);
        for _ in 0..25 {
            let w = Weights::random(d, &mut rng);
            let k = rng.gen_range(1..=40);
            let routed = router.topk(&w, k, &QueryBudget::unlimited());
            assert!(routed.coverage.is_full());
            assert_eq!(
                routed.ids,
                oracle.topk(&w, k).0,
                "d={d} n={n} p={p} k={k}: routed answer drifted from the oracle"
            );
        }
    }
}

#[test]
fn degraded_matches_survivor_oracle_for_every_dead_shard() {
    let (d, n, p) = (3, 360, 4);
    let rel = WorkloadSpec::new(Distribution::Independent, d, n, 77).generate();
    let oracle_full = DynamicIndex::new(&rel, DlOptions::default(), 0.5);
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    for dead in 0..p {
        let router = ShardRouter::new(build_shards(&rel, p), RouterConfig::default()).unwrap();
        router.cordon(dead);
        let survivors = survivor_oracle(&rel, p, &[dead]);
        for _ in 0..15 {
            let w = Weights::random(d, &mut rng);
            let k = rng.gen_range(1..=30);
            let routed = router.topk(&w, k, &QueryBudget::unlimited());
            assert!(routed.coverage.degraded());
            assert_eq!(routed.coverage.skipped(), vec![dead]);
            assert_eq!(
                routed.ids,
                survivors.topk(&w, k).0,
                "dead={dead} k={k}: degraded answer is not the survivor-partition top-k"
            );
        }
        // Rejoin: full bit-identity returns.
        router.mark_up(dead);
        let w = Weights::random(d, &mut rng);
        let routed = router.topk(&w, 20, &QueryBudget::unlimited());
        assert!(routed.coverage.is_full());
        assert_eq!(routed.ids, oracle_full.topk(&w, 20).0);
    }
}

#[test]
fn two_dead_shards_still_merge_exactly() {
    let (d, n, p) = (2, 300, 5);
    let rel = WorkloadSpec::new(Distribution::Independent, d, n, 31).generate();
    let router = ShardRouter::new(build_shards(&rel, p), RouterConfig::default()).unwrap();
    router.cordon(0);
    router.cordon(3);
    let survivors = survivor_oracle(&rel, p, &[0, 3]);
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..10 {
        let w = Weights::random(d, &mut rng);
        let k = rng.gen_range(1..=25);
        let routed = router.topk(&w, k, &QueryBudget::unlimited());
        assert_eq!(routed.coverage.skipped(), vec![0, 3]);
        assert_eq!(routed.ids, survivors.topk(&w, k).0);
    }
}

/// A shard that records the thread each of its probes ran on.
struct ThreadRecorder {
    inner: DynamicIndex,
    threads: Mutex<Vec<ThreadId>>,
}

impl ShardProbe for ThreadRecorder {
    fn probe(
        &self,
        w: &Weights,
        k: usize,
        budget: &QueryBudget,
    ) -> Result<ShardAnswer, ShardError> {
        self.threads
            .lock()
            .unwrap()
            .push(std::thread::current().id());
        self.inner.probe(w, k, budget)
    }

    fn dims(&self) -> usize {
        ShardProbe::dims(&self.inner)
    }
}

/// The router spawns no thread per query: every in-process shard is
/// probed on the thread that called `topk`.
#[test]
fn router_probes_every_shard_on_the_calling_thread() {
    let rel = WorkloadSpec::new(Distribution::Independent, 3, 400, 19).generate();
    let shards: Vec<ThreadRecorder> = build_shards(&rel, 4)
        .into_iter()
        .map(|inner| ThreadRecorder {
            inner,
            threads: Mutex::new(Vec::new()),
        })
        .collect();
    let router = ShardRouter::new(shards, RouterConfig::default()).unwrap();
    let oracle = DynamicIndex::new(&rel, DlOptions::default(), 0.5);
    let w = Weights::uniform(3);
    let routed = router.topk(&w, 10, &QueryBudget::unlimited());
    assert_eq!(routed.ids, oracle.topk(&w, 10).0);
    assert!(routed.coverage.is_full());
    let caller = std::thread::current().id();
    for s in 0..4 {
        assert_eq!(
            *router.shard(s).threads.lock().unwrap(),
            vec![caller],
            "shard {s} must be probed once, on the calling thread"
        );
    }
}

/// Brute-force top-k over the live rows, ordered by `(score, handle)`.
fn brute_force(live: &HashMap<Handle, Vec<f64>>, w: &Weights, k: usize) -> Vec<Handle> {
    let mut scored: Vec<(f64, Handle)> = live.iter().map(|(&h, row)| (w.score(row), h)).collect();
    scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    scored.into_iter().take(k).map(|(_, h)| h).collect()
}

/// A `DynamicIndex` reuses traversal scratch across queries. Rounds of
/// inserts, deletes and compactions (which change the node count)
/// alternate with rounds in which four threads query one shared index at
/// once: every answer must equal the brute-force oracle's ids, and its
/// cost must equal the same query's on a fresh clone, which starts with
/// no pooled scratch.
#[test]
fn shared_dynamic_index_reuses_scratch_across_threads_and_rebuilds() {
    let d = 3;
    let rel = WorkloadSpec::new(Distribution::Independent, d, 300, 77).generate();
    // A high rebuild fraction: only the explicit compactions rebuild.
    let mut index = DynamicIndex::new(&rel, DlOptions::default(), 5.0);
    let mut live: HashMap<Handle, Vec<f64>> = rel
        .iter()
        .map(|(t, row)| (t as Handle, row.to_vec()))
        .collect();
    let mut rng = StdRng::seed_from_u64(0x5C2A);
    let guarded = QueryBudget::unlimited().with_max_cost(u64::MAX);
    for round in 0..6 {
        for _ in 0..40 {
            let row: Vec<f64> = (0..d).map(|_| rng.gen_range(0.001..0.999)).collect();
            let h = index.insert(&row).unwrap();
            live.insert(h, row);
        }
        let mut handles: Vec<Handle> = live.keys().copied().collect();
        handles.sort_unstable();
        for _ in 0..25 {
            let h = handles.swap_remove(rng.gen_range(0..handles.len()));
            assert!(index.delete(h));
            live.remove(&h);
        }
        if round % 2 == 1 {
            index.compact();
        }
        let queries: Vec<(Weights, usize)> = (0..12)
            .map(|_| (Weights::random(d, &mut rng), rng.gen_range(1..=30)))
            .collect();
        let expected: Vec<_> = queries
            .iter()
            .map(|(w, k)| (brute_force(&live, w, *k), index.clone().topk(w, *k).1))
            .collect();
        let start = Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    for ((w, k), (ids, cost)) in queries.iter().zip(&expected) {
                        let (got, c) = index.topk(w, *k);
                        assert_eq!(&got, ids, "round {round} k={k}: topk ids");
                        assert_eq!(&c, cost, "round {round} k={k}: topk cost");
                        let g = index.topk_guarded(w, *k, &guarded);
                        assert!(g.truncated.is_none());
                        assert_eq!(&g.ids, ids, "round {round} k={k}: guarded ids");
                        assert_eq!(&g.cost, cost, "round {round} k={k}: guarded cost");
                    }
                });
            }
        });
    }
}

/// A shard read through a borrow, so one set of shards serves many
/// routers: it lends its index when `lends`, and is probed otherwise.
struct Borrowed<'a> {
    index: &'a DynamicIndex,
    lends: bool,
}

impl ShardProbe for Borrowed<'_> {
    fn lend(&self) -> Option<Result<Lent<'_>, ShardError>> {
        self.lends.then(|| Ok(Lent::new(self.index)))
    }

    fn probe(
        &self,
        w: &Weights,
        k: usize,
        budget: &QueryBudget,
    ) -> Result<ShardAnswer, ShardError> {
        self.index.probe(w, k, budget)
    }

    fn dims(&self) -> usize {
        ShardProbe::dims(self.index)
    }
}

/// A router over `shards` in which shard `s` lends iff `lends(s)`.
fn borrowed_router(
    shards: &[DynamicIndex],
    lends: impl Fn(usize) -> bool,
) -> ShardRouter<Borrowed<'_>> {
    let borrowed = shards
        .iter()
        .enumerate()
        .map(|(s, index)| Borrowed {
            index,
            lends: lends(s),
        })
        .collect();
    ShardRouter::new(borrowed, RouterConfig::default()).unwrap()
}

/// Lent shards with pending inserts and tombstones route to the
/// brute-force oracle's ids. The last case puts a buffered row on one
/// shard level with a pseudo-tuple head on another: shard 0's skyline is
/// eight copies of one point, so every pseudo-tuple of its zero layer
/// scores exactly that point, and shard 1 buffers a ninth copy under a
/// larger handle. The frontier has to step the pseudo-tuple head first,
/// so that shard 0's copies, with the lower handles, go out before it.
#[test]
fn routing_over_pending_updates_matches_brute_force() {
    let (d, n, p) = (3, 400, 4);
    let rel = WorkloadSpec::new(Distribution::Independent, d, n, 0xB0F).generate();
    // A high rebuild fraction keeps every update pending.
    let mut shards: Vec<DynamicIndex> = drtopk_core::partition_relation(&rel, p)
        .unwrap()
        .into_iter()
        .map(|(part, handles)| {
            DynamicIndex::with_handles(&part, handles, DlOptions::default(), 5.0).unwrap()
        })
        .collect();
    let mut live: HashMap<Handle, Vec<f64>> = rel
        .iter()
        .map(|(t, row)| (t as Handle, row.to_vec()))
        .collect();
    let mut rng = StdRng::seed_from_u64(0xF0F0);
    let mut next = n as Handle;
    for round in 0..5 {
        for _ in 0..30 {
            let row: Vec<f64> = (0..d).map(|_| rng.gen_range(0.001..0.999)).collect();
            shards[shard_of(next, p)].replay_insert(next, &row).unwrap();
            live.insert(next, row);
            next += 1;
        }
        let mut handles: Vec<Handle> = live.keys().copied().collect();
        handles.sort_unstable();
        for _ in 0..20 {
            let h = handles.swap_remove(rng.gen_range(0..handles.len()));
            assert!(shards[shard_of(h, p)].delete(h));
            live.remove(&h);
        }
        assert!(shards.iter().all(|s| s.pending() > 0));
        let router = borrowed_router(&shards, |_| true);
        for _ in 0..15 {
            let w = Weights::random(d, &mut rng);
            let k = rng.gen_range(1..=40);
            let routed = router.topk(&w, k, &QueryBudget::unlimited());
            assert!(routed.coverage.is_full());
            assert_eq!(
                routed.ids,
                brute_force(&live, &w, k),
                "round {round} k={k}: routed answer drifted from the oracle"
            );
        }
    }

    let point = vec![0.1, 0.2, 0.3];
    let mut rows = vec![vec![]; 216];
    for (t, row) in rows.iter_mut().enumerate() {
        *row = if t % 2 == 0 && t < 16 {
            point.clone()
        } else {
            (0..d).map(|_| rng.gen_range(0.4..0.99)).collect()
        };
    }
    let tied = Relation::from_rows(d, &rows).unwrap();
    let parts = drtopk_core::partition_relation(&tied, 2).unwrap();
    assert!(
        DualLayerIndex::build(&parts[0].0, DlOptions::default())
            .stats()
            .pseudo_tuples
            > 0,
        "shard 0 has a zero layer"
    );
    let mut shards: Vec<DynamicIndex> = parts
        .into_iter()
        .map(|(part, handles)| {
            DynamicIndex::with_handles(&part, handles, DlOptions::default(), 5.0).unwrap()
        })
        .collect();
    // The next odd handle: shard 1's id class.
    let late = shards[1].next_handle() | 1;
    shards[1].replay_insert(late, &point).unwrap();
    let router = borrowed_router(&shards, |_| true);
    let routed = router.topk(&Weights::uniform(d), 10, &QueryBudget::unlimited());
    assert_eq!(routed.ids[..9], [0, 2, 4, 6, 8, 10, 12, 14, late]);
    let mut live: HashMap<Handle, Vec<f64>> = tied
        .iter()
        .map(|(t, row)| (t as Handle, row.to_vec()))
        .collect();
    live.insert(late, point);
    assert_eq!(routed.ids, brute_force(&live, &Weights::uniform(d), 10));
}

/// The frontier stops each shard at or before its own k-th answer, so a
/// routed read never evaluates more on a shard than that shard's own
/// top-k does, and at P = 4 it evaluates strictly less on average.
///
/// A shard's part of the routed cost is read by letting only that shard
/// lend: its cursor stops at the same global k-th answer whether the
/// others lend or join as finished lists, so the routed cost less the
/// others' own costs is its part. The parts add up to the routed cost
/// with every shard lending.
#[test]
fn frontier_never_costs_a_shard_more_than_its_own_top_k() {
    let (d, n, p) = (3, 2000, 4);
    let rel = WorkloadSpec::new(Distribution::Independent, d, n, 0x7A).generate();
    let shards = build_shards(&rel, p);
    let all_lend = borrowed_router(&shards, |_| true);
    let unlimited = QueryBudget::unlimited();
    let mut rng = StdRng::seed_from_u64(0xC057);
    let (mut routed_total, mut own_total) = (0u64, 0u64);
    for _ in 0..40 {
        let w = Weights::random(d, &mut rng);
        let k = rng.gen_range(1..=30);
        let own: Vec<Cost> = shards
            .iter()
            .map(|s| s.probe(&w, k, &unlimited).unwrap().1)
            .collect();
        let routed = all_lend.topk(&w, k, &unlimited);
        let mut parts = Cost::new();
        for s in 0..p {
            let one = borrowed_router(&shards, |t| t == s).topk(&w, k, &unlimited);
            assert_eq!(one.ids, routed.ids, "shard {s} k={k}");
            let mut part = one.cost;
            for (_, c) in own.iter().enumerate().filter(|&(t, _)| t != s) {
                part.evaluated -= c.evaluated;
                part.pseudo_evaluated -= c.pseudo_evaluated;
            }
            assert!(
                part.evaluated <= own[s].evaluated
                    && part.pseudo_evaluated <= own[s].pseudo_evaluated,
                "shard {s} k={k}: routed {part:?} exceeds its own top-k {:?}",
                own[s]
            );
            parts.merge(&part);
        }
        assert_eq!(parts, routed.cost, "k={k}: per-shard parts add up");
        routed_total += routed.cost.total();
        own_total += own.iter().map(Cost::total).sum::<u64>();
    }
    assert!(
        routed_total < own_total,
        "P = {p}: routed {routed_total} is not below the shards' own {own_total}"
    );
}

/// A routed read under a cost cap returns a true prefix of the uncapped
/// answer, and is truncated exactly when it is short of it.
#[test]
fn capped_routed_reads_are_true_prefixes() {
    let (d, n, p) = (3, 1200, 4);
    let rel = WorkloadSpec::new(Distribution::AntiCorrelated, d, n, 0xCA9).generate();
    let router = ShardRouter::new(build_shards(&rel, p), RouterConfig::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(0xCA99);
    let (mut cut, mut whole) = (0, 0);
    for _ in 0..30 {
        let w = Weights::random(d, &mut rng);
        let k = rng.gen_range(1..=40);
        let full = router.topk(&w, k, &QueryBudget::unlimited());
        assert!(full.truncated.is_none());
        for cap in [0, 5, 20, 60, 200, 1000] {
            let capped = router.topk(&w, k, &QueryBudget::unlimited().with_max_cost(cap));
            assert!(
                full.ids.starts_with(&capped.ids),
                "cap {cap} k={k}: not a prefix of the uncapped answer"
            );
            let short = capped.ids.len() < full.ids.len();
            assert_eq!(
                capped.truncated,
                short.then_some(TruncateReason::CostExceeded),
                "cap {cap} k={k}: truncated exactly when short"
            );
            assert!(capped.coverage.is_full(), "a budget trip is no shard fault");
            if short {
                cut += 1;
            } else {
                whole += 1;
            }
        }
    }
    assert!(
        cut > 0 && whole > 0,
        "caps both cut and spared ({cut}, {whole})"
    );
}
