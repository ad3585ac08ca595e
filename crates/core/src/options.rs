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
}

impl Default for DlOptions {
    /// DL+ — the paper's full method.
    fn default() -> Self {
        DlOptions {
            split_fine: true,
            eds_policy: EdsPolicy::default(),
            zero: ZeroMode::Auto,
            max_fine_layers: 0,
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

#[cfg(test)]
mod tests {
    use super::*;

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
