//! PLI — a partitioned-layer index in the style of Heo et al. (Inf. Sci.
//! 2009, the paper's reference \[29\] and the precursor of the hybrid-layer
//! index).
//!
//! The relation is split into `p` partitions; each partition is peeled
//! into its own convex layers. Because each partition's layer minima are
//! non-decreasing for every positive weight vector, a query can *merge*
//! the partitions best-first: repeatedly evaluate the next layer of the
//! partition with the lowest bound, and stop once the global k-th best
//! score is at most every partition's bound. Smaller per-partition layers
//! mean the merge reads far fewer tuples than one monolithic convex-layer
//! index would (the "partitioning-merging technique" of the title).
//!
//! Partitions are formed by k-means clustering so each one is spatially
//! coherent (the closer a partition's layers hug its local frontier, the
//! earlier its bound rises past the global k-th best).

use crate::layers::fat_convex_layers;
use drtopk_cluster::kmeans;
use drtopk_common::weights::ScoredTuple;
use drtopk_common::{Cost, Relation, TupleId, Weights};

/// One partition: its tuples peeled into convex layers.
#[derive(Debug, Clone)]
struct Partition {
    layers: Vec<Vec<TupleId>>,
}

/// A built partitioned-layer index.
#[derive(Debug, Clone)]
pub struct PliIndex {
    rel: Relation,
    partitions: Vec<Partition>,
}

impl PliIndex {
    /// Builds the index with `p` partitions (0 = automatic: ⌈√(n/64)⌉,
    /// clamped to at least 1).
    pub fn build(rel: &Relation, p: usize) -> Self {
        let n = rel.len();
        let ids: Vec<TupleId> = (0..n as TupleId).collect();
        if n == 0 {
            return PliIndex {
                rel: rel.clone(),
                partitions: Vec::new(),
            };
        }
        let p = if p == 0 {
            (((n as f64) / 64.0).sqrt().ceil() as usize).max(1)
        } else {
            p
        }
        .min(n);
        let clustering = kmeans(rel, &ids, p, 0xbeef, 30);
        let mut partitions = Vec::with_capacity(clustering.k);
        for group in clustering.groups() {
            let members: Vec<TupleId> = group.into_iter().map(|pos| ids[pos as usize]).collect();
            let (layers, _) = fat_convex_layers(rel, &members, 0);
            partitions.push(Partition { layers });
        }
        PliIndex {
            rel: rel.clone(),
            partitions,
        }
    }

    /// Answers a top-k query by best-first merging of partition layers.
    pub fn topk(&self, w: &Weights, k: usize) -> (Vec<TupleId>, Cost) {
        assert_eq!(w.dims(), self.rel.dims());
        let mut cost = Cost::new();
        let k_eff = k.min(self.rel.len());
        if k_eff == 0 {
            return (Vec::new(), cost);
        }
        // Per-partition state: next layer index and the bound = minimum
        // score of the last *evaluated* layer (layer minima are monotone,
        // so every unevaluated tuple of the partition scores >= bound).
        let mut next_layer = vec![0usize; self.partitions.len()];
        let mut bound = vec![f64::NEG_INFINITY; self.partitions.len()];
        let mut candidates: Vec<ScoredTuple> = Vec::new();
        loop {
            // The partition with the lowest bound is the only place a
            // better tuple could hide.
            let active = (0..self.partitions.len())
                .filter(|&pi| next_layer[pi] < self.partitions[pi].layers.len())
                .min_by(|&a, &b| bound[a].partial_cmp(&bound[b]).unwrap());
            let kth = if candidates.len() >= k_eff {
                candidates[k_eff - 1].score
            } else {
                f64::INFINITY
            };
            let Some(pi) = active else { break };
            if kth <= bound[pi] {
                break; // every remaining tuple in every partition is worse
            }
            let layer = &self.partitions[pi].layers[next_layer[pi]];
            next_layer[pi] += 1;
            let mut layer_min = f64::INFINITY;
            for &t in layer {
                let score = w.score(self.rel.tuple(t));
                cost.tick();
                layer_min = layer_min.min(score);
                candidates.push(ScoredTuple { score, id: t });
            }
            bound[pi] = layer_min;
            candidates.sort_unstable();
            candidates.truncate(k_eff);
        }
        (candidates.into_iter().map(|s| s.id).collect(), cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::onion::OnionIndex;
    use drtopk_common::{topk_bruteforce, Distribution, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_bruteforce() {
        let mut rng = StdRng::seed_from_u64(55);
        for dist in [Distribution::Independent, Distribution::AntiCorrelated] {
            for d in 2..=4 {
                let rel = WorkloadSpec::new(dist, d, 400, 23).generate();
                for p in [0, 1, 4, 16] {
                    let idx = PliIndex::build(&rel, p);
                    for k in [1, 10, 50] {
                        let w = Weights::random(d, &mut rng);
                        assert_eq!(
                            idx.topk(&w, k).0,
                            topk_bruteforce(&rel, &w, k),
                            "{dist:?} d={d} p={p} k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn partitions_cover_relation() {
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, 3, 300, 4).generate();
        let idx = PliIndex::build(&rel, 6);
        let mut all: Vec<TupleId> = idx
            .partitions
            .iter()
            .flat_map(|p| p.layers.iter().flatten().copied())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..300).collect::<Vec<TupleId>>());
    }

    #[test]
    fn partition_merge_beats_complete_k_layer_access() {
        // The reference's claim: the partition-merge evaluates fewer
        // tuples than complete access to the first k monolithic convex
        // layers (the classical Onion guarantee). Our OnionIndex adds a
        // sound early-stop on top of that guarantee, so the honest
        // baseline here is the k-layer prefix size itself.
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, 4, 2000, 31).generate();
        let k = 10;
        let pli = PliIndex::build(&rel, 0);
        let onion = OnionIndex::build(&rel, 0);
        let complete_k: u64 = onion.layers().iter().take(k).map(|l| l.len() as u64).sum();
        let mut rng = StdRng::seed_from_u64(77);
        let queries = 15;
        let mut c_pli = 0u64;
        for _ in 0..queries {
            let w = Weights::random(4, &mut rng);
            let (a, ca) = pli.topk(&w, k);
            assert_eq!(a, topk_bruteforce(&rel, &w, k));
            c_pli += ca.total();
        }
        assert!(
            c_pli < complete_k * queries,
            "PLI mean {} must beat complete k-layer access {}",
            c_pli / queries,
            complete_k
        );
    }

    #[test]
    fn edge_cases() {
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 10, 2).generate();
        let idx = PliIndex::build(&rel, 3);
        let w = Weights::uniform(2);
        assert!(idx.topk(&w, 0).0.is_empty());
        assert_eq!(idx.topk(&w, 50).0, topk_bruteforce(&rel, &w, 10));
    }
}
