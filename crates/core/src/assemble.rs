//! Shared final assembly of a [`DualLayerIndex`] from public-space parts.
//!
//! The construction pipeline (both [`DualLayerIndex::build`] and the
//! reference build) and snapshot loading produce the same public-space
//! intermediate — layers, edge lists, pseudo-tuples, zero layer — and hand
//! it here. Assembly computes the traversal-order renumbering, packs the
//! [`EdgeArena`](crate::index::EdgeArena) straight from the public-space
//! edge lists (translating ids as it packs, with no internal-space copy),
//! and derives seeds, chain tables, internal-order scoring columns, and
//! stats. Because every producer funnels through this one function, the
//! optimized and reference builds are byte-identical *by construction* at
//! the assembly stage.

use crate::index::{CoarseLayer, DualLayerIndex, EdgeArena, IndexStats, NodeId};
use crate::options::DlOptions;
use crate::query::ScratchPool;
use crate::zero::Zero2d;
use drtopk_common::{Columns, Relation};

/// Computes the traversal-order permutation over `n + p` nodes:
///
/// * real nodes `0..n` ordered by (coarse layer, fine sublayer, attribute
///   sum ascending, tuple id ascending);
/// * pseudo nodes `n..n+p` ordered by (pseudo fine sublayer, min-corner
///   sum ascending, local index ascending).
///
/// Returns `(perm, orig)` with `perm[orig_id] = internal_id` and
/// `orig[internal_id] = orig_id`. Real nodes keep the `0..n` block and
/// pseudo nodes the `n..n+p` block, so `is_real` holds in both spaces.
pub(crate) fn traversal_order(
    rel: &Relation,
    layers: &[CoarseLayer],
    pseudo: &[f64],
    pseudo_count: usize,
    pseudo_fine: &[Vec<u32>],
) -> (Vec<NodeId>, Vec<NodeId>) {
    let n = rel.len();
    let d = rel.dims();
    let total = n + pseudo_count;
    let mut orig: Vec<NodeId> = Vec::with_capacity(total);
    let mut assigned = vec![false; total];
    let mut bucket: Vec<(f64, NodeId)> = Vec::new();
    for layer in layers {
        for fine in &layer.fine {
            bucket.clear();
            bucket.extend(
                fine.iter()
                    .map(|&t| (rel.tuple(t).iter().sum::<f64>(), t as NodeId)),
            );
            bucket.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
            for &(_, t) in &bucket {
                assigned[t as usize] = true;
                orig.push(t);
            }
        }
    }
    // Defensive: cover stragglers (a valid build/snapshot partitions the
    // relation, so this is a no-op there).
    for t in 0..n as NodeId {
        if !assigned[t as usize] {
            orig.push(t);
        }
    }
    for group in pseudo_fine {
        bucket.clear();
        bucket.extend(group.iter().map(|&local| {
            let sum: f64 = pseudo[local as usize * d..(local as usize + 1) * d]
                .iter()
                .sum();
            (sum, local)
        }));
        bucket.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        for &(_, local) in &bucket {
            assigned[n + local as usize] = true;
            orig.push(n as NodeId + local);
        }
    }
    for local in 0..pseudo_count {
        if !assigned[n + local] {
            orig.push((n + local) as NodeId);
        }
    }
    debug_assert_eq!(orig.len(), total);
    let mut perm = vec![0 as NodeId; total];
    for (internal, &o) in orig.iter().enumerate() {
        perm[o as usize] = internal as NodeId;
    }
    (perm, orig)
}

/// Final assembly: renumber, pack adjacency, derive seeds/stats/columns.
///
/// `forall_edges`/`exists_edges` are in public (original-id) space, exactly
/// as the build phases emit them; `zero2d`'s chain likewise. The produced
/// index depends only on the *sets* of edges and the layer structure, not
/// on edge-list order, because the arena sorts every segment.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble(
    rel: &Relation,
    opts: DlOptions,
    layers: Vec<CoarseLayer>,
    forall_edges: &[(NodeId, NodeId)],
    exists_edges: &[(NodeId, NodeId)],
    pseudo: Vec<f64>,
    pseudo_count: usize,
    pseudo_fine: Vec<Vec<u32>>,
    zero2d: Option<Zero2d>,
) -> DualLayerIndex {
    let n = rel.len();
    let d = rel.dims();
    let total = n + pseudo_count;
    let (node_perm, node_orig) = traversal_order(rel, &layers, &pseudo, pseudo_count, &pseudo_fine);

    // Pack the shared arena, translating edges into internal space.
    let (arena, forall_indeg, exists_indeg) =
        EdgeArena::build(&node_perm, forall_edges, exists_edges);

    // Chain tables (2-d exact zero layer): position ↔ internal id.
    let (chain_internal, chain_pos_of) = match &zero2d {
        Some(z) => {
            let ci: Vec<NodeId> = z.chain.iter().map(|&t| node_perm[t as usize]).collect();
            let mut pos_of = vec![u32::MAX; total];
            for (pos, &i) in ci.iter().enumerate() {
                pos_of[i as usize] = pos as u32;
            }
            (ci, pos_of)
        }
        None => (Vec::new(), Vec::new()),
    };

    // Seeds: nodes free at query start, internal ids ascending. Chain
    // members are excluded in 2-d exact mode (seeded per query by
    // weight-range lookup).
    let mut seeds: Vec<NodeId> = Vec::new();
    for i in 0..total as NodeId {
        let chained = chain_pos_of.get(i as usize).is_some_and(|&p| p != u32::MAX);
        if forall_indeg[i as usize] == 0 && exists_indeg[i as usize] == 0 && !chained {
            seeds.push(i);
        }
    }

    let stats = IndexStats {
        n,
        dims: d,
        coarse_layers: layers.len(),
        fine_layers: layers.iter().map(|l| l.fine.len()).sum(),
        forall_edges: forall_edges.len(),
        exists_edges: exists_edges.len(),
        pseudo_tuples: pseudo_count,
        seeds: seeds.len(),
        first_layer_size: layers.first().map_or(0, |l| l.len()),
        first_fine_size: layers
            .first()
            .and_then(|l| l.fine.first())
            .map_or(0, |f| f.len()),
    };

    // Scoring columns in internal order: row i = coords of internal node i.
    let mut rows = vec![0.0f64; total * d];
    for (internal, &o) in node_orig.iter().enumerate() {
        let coords = if (o as usize) < n {
            rel.tuple(o)
        } else {
            let p = o as usize - n;
            &pseudo[p * d..(p + 1) * d]
        };
        rows[internal * d..(internal + 1) * d].copy_from_slice(coords);
    }
    let columns = Columns::from_flat_rows(d, &rows);

    DualLayerIndex {
        rel: rel.clone(),
        opts,
        layers,
        arena,
        forall_indeg,
        exists_indeg,
        node_perm,
        node_orig,
        pseudo,
        pseudo_count,
        pseudo_fine,
        zero2d,
        chain_internal,
        chain_pos_of,
        seeds,
        columns,
        stats,
        pool: ScratchPool::default(),
    }
}
