//! Shared machinery for the experiment harness (`repro` binary), the
//! timing benches, and the `throughput` driver: dataset construction,
//! index wrappers, and cost measurement matching the paper's Definition 9.

pub mod json;
pub mod timing;

use drtopk_baselines::HlIndex;
use drtopk_common::{Distribution, Weights, WorkloadSpec};
use drtopk_core::{DlOptions, DualLayerIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Session-friendly defaults (n = 20K; 10K–50K for the cardinality sweep).
    Small,
    /// The paper's parameters (n = 200K default, up to 500K).
    Full,
}

impl Scale {
    /// Default cardinality for most experiments.
    pub fn default_n(&self) -> usize {
        match self {
            Scale::Small => 20_000,
            Scale::Full => 200_000,
        }
    }

    /// Cardinality sweep for Fig. 16.
    pub fn cardinality_sweep(&self) -> Vec<usize> {
        match self {
            Scale::Small => vec![10_000, 20_000, 30_000, 40_000, 50_000],
            Scale::Full => vec![100_000, 200_000, 300_000, 400_000, 500_000],
        }
    }
}

/// The algorithms compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Onion,
    AppRi,
    Hl,
    HlPlus,
    Dg,
    DgPlus,
    Dl,
    DlPlus,
}

impl Algo {
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Onion => "Onion",
            Algo::AppRi => "AppRI",
            Algo::Hl => "HL",
            Algo::HlPlus => "HL+",
            Algo::Dg => "DG",
            Algo::DgPlus => "DG+",
            Algo::Dl => "DL",
            Algo::DlPlus => "DL+",
        }
    }
}

/// A built index of any of the compared kinds.
pub enum BuiltIndex {
    Dual(Box<DualLayerIndex>),
    AppRi(drtopk_baselines::AppRiIndex),
    Hl(HlIndex),
    Onion(drtopk_baselines::OnionIndex),
}

/// Cap on convex layers materialized for Onion/HL: queries sweep k ≤ 50,
/// so 64 layers plus the overflow remainder always suffice.
pub const LAYER_CAP: usize = 64;

/// Builds one index, returning it with its wall-clock build time (seconds).
pub fn build_index(rel: &drtopk_common::Relation, algo: Algo) -> (BuiltIndex, f64) {
    let t0 = Instant::now();
    let built = match algo {
        Algo::Onion => BuiltIndex::Onion(drtopk_baselines::OnionIndex::build(rel, LAYER_CAP)),
        Algo::AppRi => BuiltIndex::AppRi(drtopk_baselines::AppRiIndex::build(rel)),
        Algo::Hl | Algo::HlPlus => BuiltIndex::Hl(HlIndex::build(rel, LAYER_CAP)),
        Algo::Dg => BuiltIndex::Dual(Box::new(DualLayerIndex::build(rel, DlOptions::dg()))),
        Algo::DgPlus => {
            BuiltIndex::Dual(Box::new(DualLayerIndex::build(rel, DlOptions::dg_plus())))
        }
        Algo::Dl => BuiltIndex::Dual(Box::new(DualLayerIndex::build(rel, DlOptions::dl()))),
        Algo::DlPlus => {
            BuiltIndex::Dual(Box::new(DualLayerIndex::build(rel, DlOptions::dl_plus())))
        }
    };
    (built, t0.elapsed().as_secs_f64())
}

impl BuiltIndex {
    /// Runs one query, returning the paper's cost (tuples evaluated,
    /// pseudo-tuples included).
    pub fn query_cost(&self, algo: Algo, w: &Weights, k: usize) -> u64 {
        match (self, algo) {
            (BuiltIndex::Dual(idx), _) => idx.topk(w, k).cost.total(),
            (BuiltIndex::Hl(idx), Algo::Hl) => idx.topk_hl(w, k).1.total(),
            (BuiltIndex::Hl(idx), _) => idx.topk_hl_plus(w, k).1.total(),
            (BuiltIndex::Onion(idx), _) => idx.topk(w, k).1.total(),
            (BuiltIndex::AppRi(idx), _) => idx.topk(w, k).1.total(),
        }
    }
}

/// One measured series point, serializable for EXPERIMENTS.md tooling.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub experiment: String,
    pub dist: String,
    pub algo: &'static str,
    pub n: usize,
    pub d: usize,
    pub k: usize,
    /// Mean tuples evaluated per query (Definition 9).
    pub mean_cost: f64,
    pub queries: usize,
}

impl Measurement {
    /// Renders this point as a JSON object.
    pub fn to_json(&self) -> json::Value {
        json::Value::object([
            ("experiment", json::Value::str(&self.experiment)),
            ("dist", json::Value::str(&self.dist)),
            ("algo", json::Value::str(self.algo)),
            ("n", json::Value::uint(self.n)),
            ("d", json::Value::uint(self.d)),
            ("k", json::Value::uint(self.k)),
            ("mean_cost", json::Value::float(self.mean_cost)),
            ("queries", json::Value::uint(self.queries)),
        ])
    }
}

/// Generates `queries` random weight vectors (the paper's setting:
/// uniform over the open simplex), deterministic per seed.
pub fn query_weights(d: usize, queries: usize, seed: u64) -> Vec<Weights> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..queries).map(|_| Weights::random(d, &mut rng)).collect()
}

/// Measures the mean per-query cost of `algo` on a built index.
#[allow(clippy::too_many_arguments)] // experiment cells really have this many coordinates
pub fn measure_cost(
    experiment: &str,
    dist: Distribution,
    n: usize,
    d: usize,
    k: usize,
    queries: usize,
    built: &BuiltIndex,
    algo: Algo,
) -> Measurement {
    let weights = query_weights(d, queries, 0xC0FFEE);
    let total: u64 = weights.iter().map(|w| built.query_cost(algo, w, k)).sum();
    Measurement {
        experiment: experiment.to_string(),
        dist: dist.code().to_string(),
        algo: algo.name(),
        n,
        d,
        k,
        mean_cost: total as f64 / queries as f64,
        queries,
    }
}

/// Generates the standard dataset for an experiment cell (deterministic).
pub fn dataset(dist: Distribution, d: usize, n: usize) -> drtopk_common::Relation {
    WorkloadSpec::new(dist, d, n, 0xDA7A).generate()
}

/// Nearest-rank percentile of a sorted slice (q in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Parses a harness flag's non-empty, comma-separated list of counts.
pub fn parse_list(s: &str) -> Result<Vec<usize>, String> {
    let v: Result<Vec<usize>, _> = s.split(',').map(|p| p.trim().parse::<usize>()).collect();
    match v {
        Ok(list) if !list.is_empty() => Ok(list),
        _ => Err(format!("cannot parse list {s:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query_each_algo() {
        let rel = dataset(Distribution::Independent, 3, 500);
        let w = Weights::uniform(3);
        for algo in [
            Algo::Onion,
            Algo::AppRi,
            Algo::Hl,
            Algo::HlPlus,
            Algo::Dg,
            Algo::DgPlus,
            Algo::Dl,
            Algo::DlPlus,
        ] {
            let (built, secs) = build_index(&rel, algo);
            assert!(secs >= 0.0);
            let cost = built.query_cost(algo, &w, 10);
            assert!(cost >= 10, "{algo:?} cost {cost}");
            assert!(cost <= 600, "{algo:?} cost {cost} exceeds n + pseudo");
        }
    }

    #[test]
    fn measurement_records_parameters() {
        let rel = dataset(Distribution::Independent, 2, 200);
        let (built, _) = build_index(&rel, Algo::Dl);
        let m = measure_cost(
            "fig8",
            Distribution::Independent,
            200,
            2,
            5,
            4,
            &built,
            Algo::Dl,
        );
        assert_eq!((m.n, m.d, m.k, m.queries), (200, 2, 5, 4));
        assert!(m.mean_cost >= 5.0);
        assert_eq!(m.algo, "DL");
    }
}
