//! Differential oracle gate for sharded routing: across dimensionality,
//! shard count, and workload shape, the routed answer must be
//! bit-identical to the unsharded dynamic index — and with shards forced
//! down, bit-identical to the unsharded index over the surviving
//! partitions. This is the merge tie-break contract under randomized
//! load; any drift here is a correctness bug, not noise.

use drtopk_common::{Distribution, Relation, Weights, WorkloadSpec};
use drtopk_core::shard::{shard_of, ShardAnswer, ShardError};
use drtopk_core::{
    DlOptions, DynamicIndex, Handle, QueryBudget, RouterConfig, ShardProbe, ShardRouter,
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
