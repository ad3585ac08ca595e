//! The reference kernels of the construction pipeline.
//!
//! [`DualLayerIndex::build_reference`] runs the same pipeline as
//! [`DualLayerIndex::build`] — phase order, the fine-layer cap, zero-mode
//! resolution, both zero layers and assembly are written once, in
//! `core::build` — with these kernels in place of the optimized ones:
//! repeated whole-set BSkyTree peels for the coarse layers, repeated
//! convex-skyline peels for the fine split, and pairwise edge generation
//! with no block pruning. They are deliberately slow and untouched by the
//! optimized kernels' pruning rules. The differential suite
//! (`tests/build_differential.rs`) serializes both indexes and requires
//! byte equality, so every pruning rule is checked against this ground
//! truth; golden digests pin the shared pipeline's bytes.

use crate::build::{Edges, Kernels};
use crate::index::{DualLayerIndex, NodeId};
use crate::options::{DlOptions, EdsPolicy};
use drtopk_common::{dominates, Relation, TupleId};
use drtopk_geometry::csky::{convex_skyline, ConvexLayer};
use drtopk_geometry::facet_is_eds;
use drtopk_skyline::{skyline_layers, SkylineAlgo};

impl DualLayerIndex {
    /// Reference build: the construction pipeline with the unpruned
    /// reference kernels. Produces an index the optimized
    /// [`DualLayerIndex::build`] must replicate bit for bit.
    pub fn build_reference(rel: &Relation, opts: DlOptions) -> DualLayerIndex {
        let kernels = Kernels {
            coarse: |rel, ids| (skyline_layers(rel, ids, SkylineAlgo::BSkyTree), 0),
            convex: convex_layers_reference,
            forall: forall_edges_reference,
            exists: exists_edges_reference,
        };
        crate::build::run(rel, opts, &kernels).0
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
/// call per candidate pair, no block pruning. Counts no tests (returns 0):
/// the reference build keeps no profile.
pub(crate) fn forall_edges_reference(
    rel: &Relation,
    sources: &[TupleId],
    targets: &[TupleId],
    edges: &mut Edges,
) -> u64 {
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
    0
}

/// Reference ∃-edge generation: every facet whose min-corner weakly
/// dominates the target is handed to `facet_is_eds`, in enumeration order.
/// Counts no tests (returns 0), like the ∀ kernel.
pub(crate) fn exists_edges_reference(
    rel: &Relation,
    facets: &[Vec<TupleId>],
    targets: &[TupleId],
    policy: EdsPolicy,
    edges: &mut Edges,
) -> u64 {
    if facets.is_empty() || targets.is_empty() {
        return 0;
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
    0
}
