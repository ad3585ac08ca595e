//! Retained sequential reference construction.
//!
//! [`DualLayerIndex::build_reference`] is a literal, single-threaded copy
//! of the pre-optimization build pipeline: repeated whole-set skyline
//! peels for the coarse layers, repeated convex-skyline peels for the fine
//! split, and plain pairwise edge generation with no block pruning. It is
//! deliberately slow and deliberately untouched by the optimized path's
//! pruning rules — the differential suite (`tests/differential.rs`)
//! serializes both indexes and requires byte equality, so every
//! optimization in [`build`] is checked against this ground truth.
//!
//! [`build`]: DualLayerIndex::build

use crate::index::{CoarseLayer, DualLayerIndex, NodeId};
use crate::options::{DlOptions, EdsPolicy, ZeroMode, CLUSTER_SEED};
use crate::zero::Zero2d;
use drtopk_cluster::{cluster_min_corners, kmeans};
use drtopk_common::{dominates, Relation, TupleId};
use drtopk_geometry::csky::{convex_skyline, ConvexLayer};
use drtopk_geometry::facet_is_eds;
use drtopk_skyline::{skyline_layers, SkylineAlgo};

impl DualLayerIndex {
    /// Sequential reference build. Produces an index the optimized
    /// [`DualLayerIndex::build`] must replicate bit for bit (the
    /// `build_threads` option is ignored here — this path is always
    /// single-threaded and unpruned).
    pub fn build_reference(rel: &Relation, opts: DlOptions) -> DualLayerIndex {
        let n = rel.len();
        let d = rel.dims();
        let all: Vec<TupleId> = (0..n as TupleId).collect();

        // Phase 1: coarse layers by repeated whole-set BSkyTree peels.
        let coarse = skyline_layers(rel, &all, SkylineAlgo::BSkyTree);

        // Phase 2: fine sublayers by repeated convex-skyline peels.
        let mut layers: Vec<CoarseLayer> = Vec::with_capacity(coarse.len());
        let mut fine_facets: Vec<Vec<Vec<Vec<TupleId>>>> = Vec::with_capacity(coarse.len());
        for members in &coarse {
            if opts.split_fine {
                let mut peeled = convex_layers_reference(rel, members);
                if opts.max_fine_layers > 0 && peeled.len() > opts.max_fine_layers {
                    let tail: Vec<TupleId> = peeled
                        .drain(opts.max_fine_layers - 1..)
                        .flat_map(|l| l.members)
                        .collect();
                    peeled.push(ConvexLayer {
                        members: tail,
                        facets: Vec::new(),
                    });
                }
                fine_facets.push(peeled.iter().map(|l| l.facets.clone()).collect());
                layers.push(CoarseLayer {
                    fine: peeled.into_iter().map(|l| l.members).collect(),
                });
            } else {
                layers.push(CoarseLayer {
                    fine: vec![members.clone()],
                });
                fine_facets.push(vec![Vec::new()]);
            }
        }

        // Phase 3: ∀-dominance edges, pairwise per adjacent coarse pair.
        let mut forall_edges: Vec<(NodeId, NodeId)> = Vec::new();
        for w in layers.windows(2) {
            let sources: Vec<TupleId> = w[0].members().collect();
            let targets: Vec<TupleId> = w[1].members().collect();
            forall_edges_reference(rel, &sources, &targets, &mut forall_edges);
        }

        // Phase 4: ∃-dominance edges, pairwise per adjacent fine pair.
        let mut exists_edges: Vec<(NodeId, NodeId)> = Vec::new();
        if opts.split_fine {
            for (ci, layer) in layers.iter().enumerate() {
                #[allow(clippy::needless_range_loop)]
                for j in 0..layer.fine.len().saturating_sub(1) {
                    exists_edges_reference(
                        rel,
                        &fine_facets[ci][j],
                        &layer.fine[j + 1],
                        opts.eds_policy,
                        &mut exists_edges,
                    );
                }
            }
        }

        // Phase 5: zero layer (identical to the optimized path, minus
        // profiling).
        let zero = if n == 0 {
            ZeroMode::None
        } else {
            match opts.zero {
                ZeroMode::Auto => {
                    if d == 2 && opts.split_fine {
                        ZeroMode::Exact2d
                    } else {
                        ZeroMode::Clustered { clusters: 0 }
                    }
                }
                ZeroMode::Exact2d if d != 2 || !opts.split_fine => {
                    ZeroMode::Clustered { clusters: 0 }
                }
                other => other,
            }
        };
        let mut pseudo: Vec<f64> = Vec::new();
        let mut pseudo_count = 0usize;
        let mut pseudo_fine: Vec<Vec<u32>> = Vec::new();
        let mut zero2d: Option<Zero2d> = None;
        match zero {
            ZeroMode::None => {}
            ZeroMode::Exact2d => {
                zero2d = Some(Zero2d::build(rel, &layers[0].fine[0]));
            }
            ZeroMode::Clustered { clusters } => {
                let l1: Vec<TupleId> = {
                    let mut v: Vec<TupleId> = layers[0].members().collect();
                    v.sort_unstable();
                    v
                };
                let c = if clusters == 0 {
                    (l1.len() as f64).sqrt().ceil() as usize
                } else {
                    clusters
                }
                .clamp(1, l1.len());
                let clustering = kmeans(rel, &l1, c, CLUSTER_SEED, 40);
                let corners = cluster_min_corners(rel, &l1, &clustering);
                pseudo_count = corners.len();
                for corner in &corners {
                    pseudo.extend_from_slice(corner);
                }
                for (pos, &cl) in clustering.assignment.iter().enumerate() {
                    forall_edges.push((n as NodeId + cl as NodeId, l1[pos] as NodeId));
                }
                if opts.split_fine {
                    let prel = Relation::from_flat_unchecked(d, pseudo.clone());
                    let plocal: Vec<TupleId> = (0..pseudo_count as TupleId).collect();
                    let players = convex_layers_reference(&prel, &plocal);
                    let to_node = |local: TupleId| -> NodeId { n as NodeId + local };
                    pseudo_fine = players.iter().map(|l| l.members.to_vec()).collect();
                    for j in 0..players.len().saturating_sub(1) {
                        let mut edges_local: Vec<(NodeId, NodeId)> = Vec::new();
                        exists_edges_reference(
                            &prel,
                            &players[j].facets,
                            &players[j + 1].members,
                            opts.eds_policy,
                            &mut edges_local,
                        );
                        exists_edges.extend(
                            edges_local
                                .into_iter()
                                .map(|(s, t)| (to_node(s), to_node(t))),
                        );
                    }
                    let last = players.len() - 1;
                    let l11 = &layers[0].fine[0];
                    let mut combined = pseudo.clone();
                    for &t in l11 {
                        combined.extend_from_slice(rel.tuple(t));
                    }
                    let crel = Relation::from_flat_unchecked(d, combined);
                    let facets: Vec<Vec<TupleId>> = players[last].facets.clone();
                    let ctargets: Vec<TupleId> = (0..l11.len())
                        .map(|i| (pseudo_count + i) as TupleId)
                        .collect();
                    let mut edges_local: Vec<(NodeId, NodeId)> = Vec::new();
                    exists_edges_reference(
                        &crel,
                        &facets,
                        &ctargets,
                        opts.eds_policy,
                        &mut edges_local,
                    );
                    for (s, t) in edges_local {
                        let src = n as NodeId + s;
                        let dst = l11[t as usize - pseudo_count] as NodeId;
                        exists_edges.push((src, dst));
                    }
                } else {
                    pseudo_fine = vec![(0..pseudo_count as u32).collect()];
                }
            }
            ZeroMode::Auto => unreachable!("resolved above"),
        }

        // Assembly: the same shared path as the optimized build, so the
        // renumbering, arena, seeds, and columns are identical by
        // construction.
        crate::assemble::assemble(
            rel,
            opts,
            layers,
            &forall_edges,
            &exists_edges,
            pseudo,
            pseudo_count,
            pseudo_fine,
            zero2d,
        )
    }
}

/// Reference onion peel: repeated [`convex_skyline`] over the shrinking
/// remainder, removing extracted members by position each round. This is
/// the pre-optimization `convex_layers` loop, kept verbatim as ground
/// truth for the incremental 2-d peel.
pub(crate) fn convex_layers_reference(rel: &Relation, ids: &[TupleId]) -> Vec<ConvexLayer> {
    let mut remaining: Vec<TupleId> = ids.to_vec();
    let mut layers = Vec::new();
    while !remaining.is_empty() {
        let cs = convex_skyline(rel, &remaining);
        assert!(
            !cs.members.is_empty(),
            "convex skyline of a nonempty set is nonempty"
        );
        let members: Vec<TupleId> = cs.members.iter().map(|&p| remaining[p as usize]).collect();
        let facets: Vec<Vec<TupleId>> = cs
            .facets
            .iter()
            .map(|f| f.iter().map(|&p| remaining[p as usize]).collect())
            .collect();
        let in_layer: std::collections::HashSet<u32> = cs.members.iter().copied().collect();
        let mut next = Vec::with_capacity(remaining.len() - members.len());
        for (pos, &id) in remaining.iter().enumerate() {
            if !in_layer.contains(&(pos as u32)) {
                next.push(id);
            }
        }
        remaining = next;
        layers.push(ConvexLayer { members, facets });
    }
    layers
}

/// Reference ∀-edge generation: sum-sorted prefix scan, one `dominates`
/// call per candidate pair, no block pruning.
pub(crate) fn forall_edges_reference(
    rel: &Relation,
    sources: &[TupleId],
    targets: &[TupleId],
    edges: &mut Vec<(NodeId, NodeId)>,
) {
    let mut by_sum: Vec<(f64, TupleId)> = sources
        .iter()
        .map(|&s| (rel.tuple(s).iter().sum::<f64>(), s))
        .collect();
    by_sum.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    for &t in targets {
        let tv = rel.tuple(t);
        let t_sum: f64 = tv.iter().sum();
        for &(s_sum, s) in &by_sum {
            if s_sum >= t_sum {
                break;
            }
            if dominates(rel.tuple(s), tv) {
                edges.push((s as NodeId, t as NodeId));
            }
        }
    }
}

/// Reference ∃-edge generation: every facet whose min-corner weakly
/// dominates the target is handed to `facet_is_eds`, in enumeration order.
pub(crate) fn exists_edges_reference(
    rel: &Relation,
    facets: &[Vec<TupleId>],
    targets: &[TupleId],
    policy: EdsPolicy,
    edges: &mut Vec<(NodeId, NodeId)>,
) {
    if facets.is_empty() || targets.is_empty() {
        return;
    }
    let d = rel.dims();
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

    let mut members: Vec<TupleId> = Vec::new();
    for &t in targets {
        let tv = rel.tuple(t);
        members.clear();
        let mut best: Option<(usize, f64)> = None;
        for (fi, facet) in facets.iter().enumerate() {
            let corner_ok = corners[fi].iter().zip(tv).all(|(c, x)| c <= x);
            if !corner_ok || !facet_is_eds(rel, facet, t) {
                continue;
            }
            match policy {
                EdsPolicy::FirstFacet => {
                    members.extend_from_slice(facet);
                    break;
                }
                EdsPolicy::AllFacets => {
                    for &m in facet {
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
        if let Some((fi, _)) = best {
            members.extend_from_slice(&facets[fi]);
        }
        for &m in &members {
            edges.push((m as NodeId, t as NodeId));
        }
    }
}
