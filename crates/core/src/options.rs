//! Build-time configuration of the dual-resolution index.

/// Seed of the zero layer's k-means run over L¹ (Section V-B). Fixed, so
/// a build is a function of the relation and the options alone.
pub(crate) const CLUSTER_SEED: u64 = 0x5eed;

/// How ∃-dominance edges are chosen when several facets of the previous
/// fine sublayer qualify as ∃-dominance sets of a tuple.
///
/// Fewer in-edges mean *later* ∃-freeing and therefore better selectivity
/// (a tuple is ∃-free as soon as **any** in-neighbor is reported), so one
/// sound EDS per tuple is optimal; which one pops first is query-dependent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EdsPolicy {
    /// Use the first qualifying facet (enumeration order). Cheapest to
    /// build; the paper's "minimal" facet EDS reading. Default.
    #[default]
    FirstFacet,
    /// Use every qualifying facet (union of their members). Worst
    /// selectivity, still correct — the ablation contrast case.
    AllFacets,
    /// Among qualifying facets, keep the one whose *minimum member
    /// attribute-sum* is largest: its earliest-popping member tends to pop
    /// latest under uniform-ish weights.
    BestUniform,
}

/// Zero-layer configuration (Section V).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ZeroMode {
    /// No zero layer: the whole first fine sublayer seeds the queue
    /// (plain DL, or DG when fine splitting is off).
    None,
    /// Clustered pseudo-tuples (Section V-B). `clusters = 0` means
    /// "automatic": ⌈√|L¹|⌉. With fine splitting on, the pseudo-tuples are
    /// themselves peeled into convex sublayers with ∃ edges (DL+); with it
    /// off this is DG+'s flat pseudo-tuple layer.
    Clustered {
        /// Cluster count; `0` selects ⌈√|L¹|⌉ automatically.
        clusters: usize,
    },
    /// Exact weight-range partitioning over the first sublayer's chain —
    /// 2-d only (Section V-A); falls back to `Clustered{0}` for d ≥ 3.
    Exact2d,
    /// The paper's DL+ behaviour: `Exact2d` when d == 2, clustered
    /// pseudo-tuples otherwise.
    Auto,
}

/// Options controlling index construction.
#[derive(Debug, Clone, PartialEq)]
pub struct DlOptions {
    /// Split each coarse layer into convex-skyline sublayers and build
    /// ∃-dominance edges. Turning this off yields the Dominant Graph.
    pub split_fine: bool,
    /// ∃-edge selection policy (ignored when `split_fine` is false).
    pub eds_policy: EdsPolicy,
    /// Zero-layer construction.
    pub zero: ZeroMode,
    /// Cap on fine sublayers per coarse layer (0 = unlimited). Ablation
    /// knob: 1 reproduces coarse-only behaviour with fine bookkeeping.
    pub max_fine_layers: usize,
    /// Worker threads that build independent layers with scoped threads:
    /// `1` (the default) builds sequentially, `0` uses all available
    /// cores. The built index is bit-identical at every thread count.
    pub build_threads: usize,
}

impl Default for DlOptions {
    /// DL+ — the paper's full method.
    fn default() -> Self {
        DlOptions {
            split_fine: true,
            eds_policy: EdsPolicy::default(),
            zero: ZeroMode::Auto,
            max_fine_layers: 0,
            build_threads: 1,
        }
    }
}

impl DlOptions {
    /// DL: dual-resolution layers without the zero-layer optimization.
    pub fn dl() -> Self {
        DlOptions {
            zero: ZeroMode::None,
            ..Default::default()
        }
    }

    /// DL+: DL with the zero layer (2-d exact / clustered). Same as
    /// `Default`.
    pub fn dl_plus() -> Self {
        Self::default()
    }

    /// DG: the Dominant Graph baseline — coarse skyline layers and
    /// ∀-dominance only.
    pub fn dg() -> Self {
        DlOptions {
            split_fine: false,
            zero: ZeroMode::None,
            ..Default::default()
        }
    }

    /// DG+: DG with the flat clustered pseudo-tuple zero layer.
    pub fn dg_plus() -> Self {
        DlOptions {
            split_fine: false,
            zero: ZeroMode::Clustered { clusters: 0 },
            ..Default::default()
        }
    }
}

impl DlOptions {
    /// Heuristic tuning from a sample of the relation, applying the
    /// ablation findings recorded in EXPERIMENTS.md:
    ///
    /// * construction on all cores once the input is large enough to
    ///   amortize thread startup;
    /// * the exact 2-d zero layer when applicable (always wins there);
    /// * a fine-sublayer cap for large anti-correlated inputs — the
    ///   selectivity win saturates after a handful of sublayers while
    ///   construction keeps paying per peel.
    pub fn tuned_for(rel: &drtopk_common::Relation) -> DlOptions {
        let n = rel.len();
        let d = rel.dims();
        let mut opts = DlOptions {
            build_threads: if n >= 10_000 { 0 } else { 1 },
            ..DlOptions::default()
        };
        if n == 0 {
            return opts;
        }
        // Estimate anti-correlation from a bounded sample: the variance of
        // the attribute sums collapses towards 0 when attributes trade off
        // against each other (independent data has variance d/12).
        let sample = n.min(2_000);
        let step = (n / sample).max(1);
        let mut sums = Vec::with_capacity(sample);
        let mut i = 0usize;
        while i < n && sums.len() < sample {
            sums.push(rel.tuple(i as u32).iter().sum::<f64>());
            i += step;
        }
        let mean = sums.iter().sum::<f64>() / sums.len() as f64;
        let var = sums.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / sums.len() as f64;
        let independent_var = d as f64 / 12.0;
        let anti_correlated = var < 0.5 * independent_var;
        if anti_correlated && n >= 50_000 {
            // Huge skyline layers ahead: cap the fine peeling where the
            // ablation shows the win saturating.
            opts.max_fine_layers = 16;
        }
        opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtopk_common::{Distribution, WorkloadSpec};

    #[test]
    fn tuned_options_are_sensible() {
        let small = WorkloadSpec::new(Distribution::Independent, 3, 500, 1).generate();
        let t = DlOptions::tuned_for(&small);
        assert_eq!(t.build_threads, 1);
        assert_eq!(t.max_fine_layers, 0);

        let big_ant = WorkloadSpec::new(Distribution::AntiCorrelated, 4, 60_000, 2).generate();
        let t = DlOptions::tuned_for(&big_ant);
        assert_eq!(t.build_threads, 0);
        assert_eq!(
            t.max_fine_layers, 16,
            "large anti-correlated input caps fine peeling"
        );

        let big_ind = WorkloadSpec::new(Distribution::Independent, 4, 60_000, 3).generate();
        let t = DlOptions::tuned_for(&big_ind);
        assert_eq!(t.build_threads, 0);
        assert_eq!(
            t.max_fine_layers, 0,
            "independent data keeps full fine peeling"
        );
    }

    #[test]
    fn tuned_options_produce_correct_indexes() {
        use crate::index::DualLayerIndex;
        use drtopk_common::{topk_bruteforce, Weights};
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, 3, 800, 4).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::tuned_for(&rel));
        let w = Weights::uniform(3);
        assert_eq!(idx.topk(&w, 20).ids, topk_bruteforce(&rel, &w, 20));
    }

    #[test]
    fn variant_constructors() {
        assert!(DlOptions::dl().split_fine);
        assert!(matches!(DlOptions::dl().zero, ZeroMode::None));
        assert!(!DlOptions::dg().split_fine);
        assert!(matches!(
            DlOptions::dg_plus().zero,
            ZeroMode::Clustered { clusters: 0 }
        ));
        assert!(matches!(DlOptions::dl_plus().zero, ZeroMode::Auto));
    }
}
