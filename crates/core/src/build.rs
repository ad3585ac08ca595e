//! Index construction (Algorithm 1 plus edge and zero-layer building).
//!
//! One pipeline, `run`, builds every index. It peels the coarse layers,
//! splits each into fine sublayers, connects adjacent coarse layers with ∀
//! edges and adjacent fine sublayers with ∃ edges, attaches the zero layer
//! and hands the parts to assembly. It takes a worker count and the four
//! phase kernels, and the two builds differ only there:
//!
//! * [`DualLayerIndex::build`] runs the optimized kernels on
//!   `build_threads` workers: an incremental sorted skyline peel, the
//!   incremental convex peel, sort-merge ∀-edge generation with
//!   per-dimension min/max block pruning, and min-sum-pruned ∃-edge
//!   generation;
//! * [`DualLayerIndex::build_reference`] runs the plain reference kernels
//!   of `core::build_reference` on one worker.
//!
//! Every pruning rule is *order-preserving*: it only skips work whose
//! outcome is forced, and the fan-out keeps item order, so the built index
//! is bit-identical to the reference at every thread count. The
//! differential suite in `tests/build_differential.rs` holds the two to
//! byte-equal snapshots.

use crate::index::{CoarseLayer, DualLayerIndex, NodeId};
use crate::options::{DlOptions, EdsPolicy, ZeroMode, CLUSTER_SEED};
use crate::profile::BuildProfile;
use crate::zero::Zero2d;
use drtopk_cluster::{cluster_min_corners, kmeans};
use drtopk_common::par::parallel_map;
use drtopk_common::{dominates, Relation, TupleId};
use drtopk_geometry::csky::{convex_layers, ConvexLayer};
use drtopk_geometry::facet_is_eds;
use drtopk_skyline::skyline_layers_incremental;
use std::time::Instant;

/// Sources per ∀-edge pruning block: for each block of the sum-sorted
/// source list the per-dimension min and max are precomputed, so whole
/// blocks are skipped (min-corner incomparable) or bulk-accepted
/// (max-corner dominated) without a single pairwise test.
const FORALL_BLOCK: usize = 64;

/// Facets per ∃-edge pruning block (same idea over facet min-corners and
/// minimum member sums).
const EXISTS_BLOCK: usize = 32;

/// Safety margin for the ∃-edge minimum-sum prune. A facet whose minimum
/// member sum is ≥ the target's sum cannot contain a dominating virtual
/// point (every convex combination's sum is ≥ the minimum member sum,
/// while domination forces a strictly smaller sum), so `facet_is_eds`
/// must return false for it — but that test computes the virtual point in
/// floating point, so the prune only fires with this much slack to stay
/// exactly equivalent even under worst-case rounding.
const EXISTS_SUM_MARGIN: f64 = 1e-7;

/// Dominance edges as (source, target) pairs in public (original-id) space.
pub(crate) type Edges = Vec<(NodeId, NodeId)>;

/// The facets of one fine sublayer, each a list of member ids.
type Facets = Vec<Vec<TupleId>>;

/// Signature of [`Kernels::coarse`].
type CoarseKernel = fn(&Relation, &[TupleId], usize) -> (Vec<Vec<TupleId>>, u64);

/// Signature of [`Kernels::exists`].
type ExistsKernel = fn(&Relation, &[Vec<TupleId>], &[TupleId], EdsPolicy, &mut Edges) -> u64;

/// The four phase kernels [`run`] calls. An edge kernel appends its edges
/// in the reference's order and returns the dominance tests it ran
/// (`dominates` calls or `facet_is_eds` evaluations) for the profile; the
/// reference kernels count none.
pub(crate) struct Kernels {
    /// Coarse layers (iterated skylines) of `ids` on up to the given
    /// number of workers, and the dominance tests the peel ran.
    pub(crate) coarse: CoarseKernel,
    /// Convex-layer peel of one coarse layer, or of the pseudo-tuples.
    pub(crate) convex: fn(&Relation, &[TupleId]) -> Vec<ConvexLayer>,
    /// ∀ edges from each of `sources` to every target it dominates.
    pub(crate) forall: fn(&Relation, &[TupleId], &[TupleId], &mut Edges) -> u64,
    /// ∃ edges to each target from the members of the facets that cover
    /// it, chosen by the EDS policy.
    pub(crate) exists: ExistsKernel,
}

/// The kernels [`DualLayerIndex::build`] runs.
const OPTIMIZED: Kernels = Kernels {
    coarse: skyline_layers_incremental,
    convex: convex_layers,
    forall: forall_edges_between,
    exists: exists_edges_between,
};

impl DualLayerIndex {
    /// Builds the dual-resolution layer index over `rel`.
    ///
    /// Construction follows Algorithm 1: peel skyline (coarse) layers,
    /// split each into convex-skyline (fine) sublayers, connect adjacent
    /// coarse layers with ∀-dominance edges and adjacent fine sublayers
    /// with facet-derived ∃-dominance edges, then attach the configured
    /// zero layer.
    pub fn build(rel: &Relation, opts: DlOptions) -> DualLayerIndex {
        Self::build_with_profile(rel, opts).0
    }

    /// Like [`DualLayerIndex::build`], additionally returning per-phase
    /// wall-clock and dominance-test counts (see [`BuildProfile`]).
    pub fn build_with_profile(rel: &Relation, opts: DlOptions) -> (DualLayerIndex, BuildProfile) {
        let threads = opts.build_threads;
        run(rel, opts, threads, &OPTIMIZED)
    }
}

/// The construction pipeline: Algorithm 1 and the zero layer with the
/// kernels `k` on up to `threads` workers, then assembly. Independent jobs
/// (coarse layers, adjacent layer pairs) fan out in item order.
pub(crate) fn run(
    rel: &Relation,
    opts: DlOptions,
    threads: usize,
    k: &Kernels,
) -> (DualLayerIndex, BuildProfile) {
    let build_start = Instant::now();
    let mut profile = BuildProfile::default();
    let n = rel.len();
    let d = rel.dims();
    let all: Vec<TupleId> = (0..n as TupleId).collect();

    // Phase 1: coarse layers (iterated skylines).
    let t0 = Instant::now();
    let (coarse, tests) = (k.coarse)(rel, &all, threads);
    profile.coarse_peel.dominance_tests = tests;
    profile.coarse_peel.seconds = t0.elapsed().as_secs_f64();

    // Phase 2: fine sublayers (iterated convex skylines per coarse layer),
    // each with the facets its ∃ edges start from.
    let t0 = Instant::now();
    let split_one = |members: &Vec<TupleId>| -> (CoarseLayer, Vec<Facets>) {
        if !opts.split_fine {
            let fine = vec![members.clone()];
            return (CoarseLayer { fine }, vec![Vec::new()]);
        }
        let mut peeled = (k.convex)(rel, members);
        if opts.max_fine_layers > 0 && peeled.len() > opts.max_fine_layers {
            // Merge the tail into the last allowed sublayer.
            let tail: Vec<TupleId> = peeled
                .drain(opts.max_fine_layers - 1..)
                .flat_map(|l| l.members)
                .collect();
            peeled.push(ConvexLayer {
                members: tail,
                facets: Vec::new(),
            });
        }
        // Clone rather than move the facets: the clones are exactly sized,
        // while the peel's own lists carry spare capacity until phase 4.
        let facets = peeled.iter().map(|l| l.facets.clone()).collect();
        let fine = peeled.into_iter().map(|l| l.members).collect();
        (CoarseLayer { fine }, facets)
    };
    let (layers, fine_facets): (Vec<CoarseLayer>, Vec<Vec<Facets>>) =
        parallel_map(&coarse, threads, &split_one)
            .into_iter()
            .unzip();
    profile.fine_split.seconds = t0.elapsed().as_secs_f64();

    // Phase 3: ∀-dominance edges between adjacent coarse layers.
    let t0 = Instant::now();
    let pairs: Vec<(Vec<TupleId>, Vec<TupleId>)> = layers
        .windows(2)
        .map(|w| (w[0].members().collect(), w[1].members().collect()))
        .collect();
    let forall_one = |(sources, targets): &(Vec<TupleId>, Vec<TupleId>)| {
        let mut edges = Vec::new();
        let tests = (k.forall)(rel, sources, targets, &mut edges);
        (edges, tests)
    };
    let mut forall_edges: Edges = Vec::new();
    for (edges, tests) in parallel_map(&pairs, threads, &forall_one) {
        forall_edges.extend(edges);
        profile.forall_edges.dominance_tests += tests;
    }
    profile.forall_edges.seconds = t0.elapsed().as_secs_f64();

    // Phase 4: ∃-dominance edges between adjacent fine sublayers (none
    // without a fine split: every coarse layer is then one sublayer).
    let t0 = Instant::now();
    let fine_pairs: Vec<(usize, usize)> = layers
        .iter()
        .enumerate()
        .flat_map(|(ci, layer)| (0..layer.fine.len().saturating_sub(1)).map(move |j| (ci, j)))
        .collect();
    let exists_one = |&(ci, j): &(usize, usize)| {
        let mut edges = Vec::new();
        let (facets, targets) = (&fine_facets[ci][j], &layers[ci].fine[j + 1]);
        let tests = (k.exists)(rel, facets, targets, opts.eds_policy, &mut edges);
        (edges, tests)
    };
    let mut exists_edges: Edges = Vec::new();
    for (edges, tests) in parallel_map(&fine_pairs, threads, &exists_one) {
        exists_edges.extend(edges);
        profile.exists_edges.dominance_tests += tests;
    }
    profile.exists_edges.seconds = t0.elapsed().as_secs_f64();

    // Phase 5: zero layer (skipped for empty relations).
    let t0 = Instant::now();
    let zero = match opts.zero {
        _ if n == 0 => ZeroMode::None,
        ZeroMode::Auto | ZeroMode::Exact2d if d == 2 && opts.split_fine => ZeroMode::Exact2d,
        ZeroMode::Auto | ZeroMode::Exact2d => ZeroMode::Clustered { clusters: 0 },
        other => other,
    };
    let mut pseudo: Vec<f64> = Vec::new();
    let mut pseudo_count = 0usize;
    let mut pseudo_fine: Vec<Vec<u32>> = Vec::new();
    let mut zero2d: Option<Zero2d> = None;
    match zero {
        ZeroMode::None => {}
        ZeroMode::Exact2d => zero2d = Some(Zero2d::build(rel, &layers[0].fine[0])),
        ZeroMode::Clustered { clusters } => {
            // Sort so the clustering is independent of fine-sublayer
            // order: DL+ and DG+ then share identical pseudo-tuples,
            // which the Theorem-5-style cost inclusion relies on.
            let mut l1: Vec<TupleId> = layers[0].members().collect();
            l1.sort_unstable();
            let c = match clusters {
                0 => (l1.len() as f64).sqrt().ceil() as usize,
                c => c,
            };
            let clustering = kmeans(rel, &l1, c.clamp(1, l1.len()), CLUSTER_SEED, 40);
            let corners = cluster_min_corners(rel, &l1, &clustering);
            pseudo_count = corners.len();
            pseudo = corners.concat();
            let to_node = |local: TupleId| -> NodeId { n as NodeId + local };
            // ∀ edges: each pseudo-tuple dominates (weakly) its cluster.
            for (pos, &cl) in clustering.assignment.iter().enumerate() {
                forall_edges.push((to_node(cl as TupleId), l1[pos] as NodeId));
            }
            let plocal: Vec<TupleId> = (0..pseudo_count as TupleId).collect();
            if !opts.split_fine {
                pseudo_fine = vec![plocal];
            } else {
                // DL+: peel the pseudo-tuples into their own fine
                // sublayers with ∃ edges, and connect the last pseudo
                // sublayer's facets to L¹¹.
                let prel = Relation::from_flat_unchecked(d, pseudo.clone());
                let players = (k.convex)(&prel, &plocal);
                for w in players.windows(2) {
                    let mut local = Vec::new();
                    profile.zero_layer.dominance_tests += (k.exists)(
                        &prel,
                        &w[0].facets,
                        &w[1].members,
                        opts.eds_policy,
                        &mut local,
                    );
                    exists_edges.extend(local.into_iter().map(|(s, t)| (to_node(s), to_node(t))));
                }
                // Boundary ∃ edges: last pseudo sublayer facets → L¹¹.
                // EDS feasibility must be tested in one coordinate space,
                // so build a throwaway relation holding pseudo corners
                // followed by the L¹¹ tuples.
                let l11 = &layers[0].fine[0];
                let mut combined = pseudo.clone();
                for &t in l11 {
                    combined.extend_from_slice(rel.tuple(t));
                }
                let crel = Relation::from_flat_unchecked(d, combined);
                let ctargets: Vec<TupleId> = (0..l11.len())
                    .map(|i| (pseudo_count + i) as TupleId)
                    .collect();
                let last = &players[players.len() - 1].facets;
                let mut local = Vec::new();
                profile.zero_layer.dominance_tests +=
                    (k.exists)(&crel, last, &ctargets, opts.eds_policy, &mut local);
                // Facet members are pseudo-locals, targets offset L¹¹ slots.
                for (s, t) in local {
                    exists_edges.push((to_node(s), l11[t as usize - pseudo_count] as NodeId));
                }
                pseudo_fine = players.into_iter().map(|l| l.members).collect();
            }
        }
        ZeroMode::Auto => unreachable!("resolved above"),
    }
    profile.zero_layer.seconds = t0.elapsed().as_secs_f64();

    // Final assembly (shared with snapshot loading): traversal-order
    // renumbering, edge arena, seeds, stats, internal-order scoring columns.
    let t0 = Instant::now();
    let idx = crate::assemble::assemble(
        rel,
        opts,
        layers,
        &forall_edges,
        &exists_edges,
        pseudo,
        pseudo_count,
        pseudo_fine,
        zero2d,
    );
    profile.assemble_seconds = t0.elapsed().as_secs_f64();
    profile.total_seconds = build_start.elapsed().as_secs_f64();
    (idx, profile)
}

/// Adds an edge `(s, t)` for every `s ∈ sources` dominating `t ∈ targets`;
/// returns the number of dominance tests performed.
///
/// Sources are sorted by attribute sum (dominance implies a strictly
/// smaller sum), so each target only considers the prefix of sources below
/// its own sum — found by binary search instead of a scan — and that
/// prefix is walked in [`FORALL_BLOCK`]-sized blocks with per-dimension
/// min/max summaries: a block whose min-corner fails to weakly dominate
/// the target is skipped whole, a block whose max-corner is weakly
/// dominated by the target is accepted whole (a smaller sum rules out
/// equality, so weak dominance is strict). Both rules force the outcome of
/// every test they skip, so the emitted edge sequence is exactly the
/// pairwise reference's.
fn forall_edges_between(
    rel: &Relation,
    sources: &[TupleId],
    targets: &[TupleId],
    edges: &mut Vec<(NodeId, NodeId)>,
) -> u64 {
    let d = rel.dims();
    // Collected and sorted exactly as the reference path does (same input
    // order, same sum-only comparator) so that equal-sum sources keep the
    // same relative order and edges come out in the same sequence.
    let mut by_sum: Vec<(f64, TupleId)> = sources
        .iter()
        .map(|&s| (rel.tuple(s).iter().sum::<f64>(), s))
        .collect();
    by_sum.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap());

    let blocks = by_sum.len().div_ceil(FORALL_BLOCK);
    let mut bmin = vec![f64::INFINITY; blocks * d];
    let mut bmax = vec![f64::NEG_INFINITY; blocks * d];
    for (i, &(_, s)) in by_sum.iter().enumerate() {
        let base = (i / FORALL_BLOCK) * d;
        for (k, &x) in rel.tuple(s).iter().enumerate() {
            if x < bmin[base + k] {
                bmin[base + k] = x;
            }
            if x > bmax[base + k] {
                bmax[base + k] = x;
            }
        }
    }

    let mut tests = 0u64;
    for &t in targets {
        let tv = rel.tuple(t);
        let t_sum: f64 = tv.iter().sum();
        // First source whose sum is not below the target's: sources from
        // here on can never dominate.
        let cut = by_sum.partition_point(|&(s_sum, _)| s_sum < t_sum);
        let mut i = 0;
        while i < cut {
            let b = i / FORALL_BLOCK;
            let end = ((b + 1) * FORALL_BLOCK).min(cut);
            // Block min/max summaries cover the whole block; the prefix
            // below `cut` inherits both bounds.
            let lo = &bmin[b * d..(b + 1) * d];
            if lo.iter().zip(tv).any(|(m, x)| m > x) {
                i = end;
                continue;
            }
            let hi = &bmax[b * d..(b + 1) * d];
            if hi.iter().zip(tv).all(|(m, x)| m <= x) {
                for &(_, s) in &by_sum[i..end] {
                    edges.push((s as NodeId, t as NodeId));
                }
                i = end;
                continue;
            }
            for &(_, s) in &by_sum[i..end] {
                tests += 1;
                if dominates(rel.tuple(s), tv) {
                    edges.push((s as NodeId, t as NodeId));
                }
            }
            i = end;
        }
    }
    tests
}

/// Adds ∃-dominance edges from facet members of the previous fine sublayer
/// to each covered target, under the given policy; returns the number of
/// `facet_is_eds` evaluations.
///
/// Facets are scanned in enumeration order (the `FirstFacet` policy is
/// order-sensitive) but a facet is only *tested* when its min-corner
/// weakly dominates the target and its minimum member sum is materially
/// below the target's sum (see [`EXISTS_SUM_MARGIN`]); block-level
/// summaries of both bounds skip entire facet runs. Every skipped facet is
/// one `facet_is_eds` must reject, so edges match the unpruned reference
/// exactly.
fn exists_edges_between(
    rel: &Relation,
    facets: &[Vec<TupleId>],
    targets: &[TupleId],
    policy: EdsPolicy,
    edges: &mut Vec<(NodeId, NodeId)>,
) -> u64 {
    if facets.is_empty() || targets.is_empty() {
        return 0;
    }
    let d = rel.dims();
    // Per-facet min-corner prefilter: a facet can only be an EDS of t' if
    // its corner weakly dominates t'.
    let corners: Vec<Vec<f64>> = facets
        .iter()
        .map(|f| {
            (0..d)
                .map(|i| {
                    f.iter()
                        .map(|&m| rel.tuple(m)[i])
                        .fold(f64::INFINITY, f64::min)
                })
                .collect()
        })
        .collect();
    let min_sums: Vec<f64> = facets
        .iter()
        .map(|f| {
            f.iter()
                .map(|&m| rel.tuple(m).iter().sum::<f64>())
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let blocks = facets.len().div_ceil(EXISTS_BLOCK);
    let mut bcorner = vec![f64::INFINITY; blocks * d];
    let mut bsum = vec![f64::INFINITY; blocks];
    for fi in 0..facets.len() {
        let b = fi / EXISTS_BLOCK;
        for k in 0..d {
            if corners[fi][k] < bcorner[b * d + k] {
                bcorner[b * d + k] = corners[fi][k];
            }
        }
        if min_sums[fi] < bsum[b] {
            bsum[b] = min_sums[fi];
        }
    }

    let mut tests = 0u64;
    let mut members: Vec<TupleId> = Vec::new();
    for &t in targets {
        let tv = rel.tuple(t);
        let t_sum: f64 = tv.iter().sum();
        members.clear();
        let mut best: Option<(usize, f64)> = None;
        'scan: for b in 0..blocks {
            if bsum[b] >= t_sum + EXISTS_SUM_MARGIN {
                continue;
            }
            if bcorner[b * d..(b + 1) * d]
                .iter()
                .zip(tv)
                .any(|(c, x)| c > x)
            {
                continue;
            }
            let lo = b * EXISTS_BLOCK;
            let hi = ((b + 1) * EXISTS_BLOCK).min(facets.len());
            for fi in lo..hi {
                if min_sums[fi] >= t_sum + EXISTS_SUM_MARGIN {
                    continue;
                }
                if corners[fi].iter().zip(tv).any(|(c, x)| c > x) {
                    continue;
                }
                tests += 1;
                if !facet_is_eds(rel, &facets[fi], t) {
                    continue;
                }
                match policy {
                    EdsPolicy::FirstFacet => {
                        members.extend_from_slice(&facets[fi]);
                        break 'scan;
                    }
                    EdsPolicy::AllFacets => {
                        for &m in &facets[fi] {
                            if !members.contains(&m) {
                                members.push(m);
                            }
                        }
                    }
                    EdsPolicy::BestUniform => {
                        if best.is_none_or(|(_, s)| min_sums[fi] > s) {
                            best = Some((fi, min_sums[fi]));
                        }
                    }
                }
            }
        }
        if let Some((fi, _)) = best {
            members.extend_from_slice(&facets[fi]);
        }
        for &m in &members {
            edges.push((m as NodeId, t as NodeId));
        }
    }
    tests
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_reference::{exists_edges_reference, forall_edges_reference};
    use drtopk_common::{Distribution, Weights, WorkloadSpec};
    use drtopk_skyline::{skyline_layers, SkylineAlgo};

    #[test]
    fn pruned_forall_edges_match_pairwise_reference() {
        for dist in [
            Distribution::Independent,
            Distribution::Correlated,
            Distribution::AntiCorrelated,
        ] {
            for d in [2, 3, 4] {
                let rel = WorkloadSpec::new(dist, d, 500, 13).generate();
                let all: Vec<TupleId> = (0..rel.len() as TupleId).collect();
                let layers = skyline_layers(&rel, &all, SkylineAlgo::BSkyTree);
                for w in layers.windows(2) {
                    let mut fast = Vec::new();
                    forall_edges_between(&rel, &w[0], &w[1], &mut fast);
                    let mut slow = Vec::new();
                    forall_edges_reference(&rel, &w[0], &w[1], &mut slow);
                    assert_eq!(fast, slow, "{dist:?} d={d}: edge sequences must match");
                }
            }
        }
    }

    #[test]
    fn pruned_exists_edges_match_pairwise_reference() {
        for dist in [Distribution::Independent, Distribution::AntiCorrelated] {
            for d in [2, 3, 4] {
                let rel = WorkloadSpec::new(dist, d, 400, 31).generate();
                let all: Vec<TupleId> = (0..rel.len() as TupleId).collect();
                let peeled = convex_layers(&rel, &all);
                for policy in [
                    EdsPolicy::FirstFacet,
                    EdsPolicy::AllFacets,
                    EdsPolicy::BestUniform,
                ] {
                    for w in peeled.windows(2) {
                        let mut fast = Vec::new();
                        exists_edges_between(&rel, &w[0].facets, &w[1].members, policy, &mut fast);
                        let mut slow = Vec::new();
                        exists_edges_reference(
                            &rel,
                            &w[0].facets,
                            &w[1].members,
                            policy,
                            &mut slow,
                        );
                        assert_eq!(fast, slow, "{dist:?} d={d} {policy:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn exists_edges_degenerate_facets_match_reference() {
        // Hand-built 3-d fixture exercising the shapes convex peeling can
        // emit in degenerate inputs: a facet listing the same member twice,
        // facets with fewer than d vertices (segments and singletons), and
        // empty facet/target slices.
        let flat = vec![
            0.1, 0.1, 0.1, // 0: dominates most things
            0.1, 0.1, 0.1, // 1: exact duplicate of 0
            0.2, 0.6, 0.3, // 2
            0.6, 0.2, 0.4, // 3
            0.5, 0.5, 0.5, // 4: target
            0.7, 0.7, 0.7, // 5: target dominated by everything above
            0.05, 0.9, 0.9, // 6: incomparable-ish target
        ];
        let rel = Relation::from_flat_unchecked(3, flat);
        let facet_sets: Vec<Vec<Vec<TupleId>>> = vec![
            vec![vec![0, 0]],       // duplicate member in one facet
            vec![vec![0, 1]],       // duplicate *tuples* (distinct ids)
            vec![vec![2], vec![3]], // singleton facets (< d vertices)
            vec![vec![2, 3]],       // segment facet in 3-d (< d vertices)
            vec![vec![0, 2, 3], vec![1], vec![2, 2, 3]],
            vec![], // empty facet list
        ];
        let target_sets: Vec<Vec<TupleId>> = vec![vec![4, 5, 6], vec![5], vec![]];
        for facets in &facet_sets {
            for targets in &target_sets {
                for policy in [
                    EdsPolicy::FirstFacet,
                    EdsPolicy::AllFacets,
                    EdsPolicy::BestUniform,
                ] {
                    let mut fast = Vec::new();
                    exists_edges_between(&rel, facets, targets, policy, &mut fast);
                    let mut slow = Vec::new();
                    exists_edges_reference(&rel, facets, targets, policy, &mut slow);
                    assert_eq!(
                        fast, slow,
                        "facets={facets:?} targets={targets:?} {policy:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_build_is_identical_to_sequential() {
        for dist in [Distribution::Independent, Distribution::AntiCorrelated] {
            for d in [2, 4] {
                let rel = WorkloadSpec::new(dist, d, 600, 21).generate();
                for base in [DlOptions::dl(), DlOptions::dl_plus(), DlOptions::dg_plus()] {
                    let seq = DualLayerIndex::build(&rel, base.clone());
                    for build_threads in [0, 3] {
                        let par = DualLayerIndex::build(
                            &rel,
                            DlOptions {
                                build_threads,
                                ..base.clone()
                            },
                        );
                        assert_eq!(seq.stats(), par.stats(), "{dist:?} d={d}");
                        assert_eq!(
                            seq.to_snapshot(),
                            par.to_snapshot(),
                            "{dist:?} d={d} threads={build_threads}: snapshots must be identical"
                        );
                        let w = Weights::uniform(d);
                        let (a, b) = (seq.topk(&w, 25), par.topk(&w, 25));
                        assert_eq!(a.ids, b.ids);
                        assert_eq!(a.cost, b.cost, "parallel build must not change costs");
                    }
                }
            }
        }
    }

    #[test]
    fn profile_reports_phase_activity() {
        let rel = WorkloadSpec::new(Distribution::Independent, 3, 500, 9).generate();
        let (idx, profile) = DualLayerIndex::build_with_profile(&rel, DlOptions::dl_plus());
        assert!(idx.stats().coarse_layers > 1);
        assert!(profile.total_seconds > 0.0);
        assert!(
            profile.coarse_peel.dominance_tests > 0,
            "incremental peel counts"
        );
        assert!(profile.forall_edges.dominance_tests > 0);
        assert!(
            profile.exists_edges.dominance_tests > 0,
            "split_fine build runs EDS tests"
        );
        // DG builds do no EDS work at all.
        let (_, dg) = DualLayerIndex::build_with_profile(&rel, DlOptions::dg());
        assert_eq!(dg.exists_edges.dominance_tests, 0);
        assert_eq!(dg.zero_layer.dominance_tests, 0);
    }
}
