//! Query introspection: where did the evaluations go?
//!
//! [`DualLayerIndex::explain`] answers a query while attributing every
//! scored tuple to its coarse layer — the EXPLAIN view of the paper's
//! access-cost story (selective access should concentrate evaluations in
//! the first few layers even when answers reach deeper).

use crate::index::DualLayerIndex;
use crate::query::TopkResult;
use drtopk_common::Weights;

/// Evaluation breakdown of one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryExplain {
    /// Tuples evaluated per coarse layer (index 0 = L¹).
    pub evaluated_per_layer: Vec<u32>,
    /// Pseudo-tuples evaluated (zero layer).
    pub pseudo_evaluated: u32,
    /// Deepest coarse layer contributing an answer (1-based; 0 if none).
    pub answer_depth: usize,
}

impl QueryExplain {
    /// Renders a compact textual report.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "evaluations per coarse layer (answers reach layer {}):",
            self.answer_depth
        );
        if self.pseudo_evaluated > 0 {
            let _ = writeln!(out, "  L0 (pseudo): {}", self.pseudo_evaluated);
        }
        // Every layer down to the answer depth is reported, zero or not: a
        // skipped line would make "L3: 5" ambiguous between "L2 untouched"
        // and "L2 elided". Deeper layers print only when touched.
        for (i, &c) in self.evaluated_per_layer.iter().enumerate() {
            if c > 0 || i < self.answer_depth {
                let _ = writeln!(out, "  L{}: {}", i + 1, c);
            }
        }
        out
    }
}

impl DualLayerIndex {
    /// Like [`DualLayerIndex::topk`], additionally attributing every
    /// evaluated tuple to its coarse layer.
    pub fn explain(&self, w: &Weights, k: usize) -> (TopkResult, QueryExplain) {
        let n = self.len();
        // Coarse layer of each tuple (small one-off map; explain is a
        // diagnostic API, not the hot path).
        let mut layer_of = vec![0u32; n];
        for (ci, layer) in self.coarse_layers().iter().enumerate() {
            for t in layer.members() {
                layer_of[t as usize] = ci as u32;
            }
        }
        let (result, evaluated) = self.topk_evaluated(w, k);
        let mut evaluated_per_layer = vec![0u32; self.coarse_layers().len()];
        let mut pseudo_evaluated = 0u32;
        for node in evaluated {
            if (node as usize) < n {
                evaluated_per_layer[layer_of[node as usize] as usize] += 1;
            } else {
                pseudo_evaluated += 1;
            }
        }
        let answer_depth = result
            .ids
            .iter()
            .map(|&t| layer_of[t as usize] as usize + 1)
            .max()
            .unwrap_or(0);
        (
            result,
            QueryExplain {
                evaluated_per_layer,
                pseudo_evaluated,
                answer_depth,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::DlOptions;
    use drtopk_common::{Distribution, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn breakdown_sums_to_cost() {
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, 3, 400, 15).generate();
        let mut rng = StdRng::seed_from_u64(8);
        for opts in [DlOptions::dl(), DlOptions::dl_plus()] {
            let idx = DualLayerIndex::build(&rel, opts);
            for k in [1, 10, 30] {
                let w = Weights::random(3, &mut rng);
                let (res, ex) = idx.explain(&w, k);
                let layered: u64 = ex.evaluated_per_layer.iter().map(|&c| c as u64).sum();
                assert_eq!(layered, res.cost.evaluated, "real evaluations attributed");
                assert_eq!(u64::from(ex.pseudo_evaluated), res.cost.pseudo_evaluated);
                assert!(ex.answer_depth >= 1 && ex.answer_depth <= idx.coarse_layers().len());
                assert_eq!(res.ids, idx.topk(&w, k).ids);
            }
        }
    }

    #[test]
    fn render_lists_untouched_layers_up_to_answer_depth() {
        let ex = QueryExplain {
            evaluated_per_layer: vec![6, 0, 3, 0, 0],
            pseudo_evaluated: 2,
            answer_depth: 4,
        };
        let text = ex.render();
        assert!(text.contains("L0 (pseudo): 2"));
        // L2 saw zero evaluations but sits above the answer depth: it must
        // still be listed, explicitly zero.
        assert!(text.contains("L1: 6"));
        assert!(text.contains("L2: 0"));
        assert!(text.contains("L3: 3"));
        assert!(text.contains("L4: 0"));
        // Layers past the answer depth with no evaluations stay hidden.
        assert!(!text.contains("L5"));
    }

    #[test]
    fn evaluations_concentrate_in_early_layers() {
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, 4, 800, 3).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());
        let w = Weights::uniform(4);
        let (_, ex) = idx.explain(&w, 10);
        let total: u32 = ex.evaluated_per_layer.iter().sum();
        let first_three: u32 = ex.evaluated_per_layer.iter().take(3).sum();
        assert!(
            first_three as f64 >= 0.8 * total as f64,
            "selective access should focus on early layers: {:?}",
            ex.evaluated_per_layer
        );
        assert!(!ex.render().is_empty());
    }
}
