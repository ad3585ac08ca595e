//! Structural invariant checks for built indexes.
//!
//! These are exercised by the test suite and usable by applications that
//! want to validate an index built over untrusted data. Each function
//! panics with a description on the first violated invariant.

use crate::index::{DualLayerIndex, NodeId};
use drtopk_common::{dominates, dominates_eq, TupleId, Weights};

/// Checks the layering invariants:
///
/// * coarse layers partition the relation; fine sublayers partition their
///   coarse layer;
/// * no tuple dominates another inside the same coarse layer;
/// * every tuple of coarse layer i+1 is dominated by some tuple of layer i.
pub fn verify_structure(idx: &DualLayerIndex) {
    let rel = idx.relation();
    let n = rel.len();
    let mut seen = vec![false; n];
    for layer in idx.coarse_layers() {
        for t in layer.members() {
            assert!(!seen[t as usize], "tuple {t} appears in two layers");
            seen[t as usize] = true;
        }
    }
    assert!(
        seen.iter().all(|&s| s),
        "some tuple is missing from the layers"
    );

    for (ci, layer) in idx.coarse_layers().iter().enumerate() {
        let members: Vec<TupleId> = layer.members().collect();
        for &a in &members {
            for &b in &members {
                assert!(
                    !dominates(rel.tuple(a), rel.tuple(b)),
                    "dominance inside coarse layer {ci}: {a} ≺ {b}"
                );
            }
        }
        if ci > 0 {
            let prev: Vec<TupleId> = idx.coarse_layers()[ci - 1].members().collect();
            for &t in &members {
                assert!(
                    prev.iter().any(|&s| dominates(rel.tuple(s), rel.tuple(t))),
                    "tuple {t} in layer {ci} lacks a dominator in layer {}",
                    ci - 1
                );
            }
        }
    }
}

/// Checks edge-level invariants:
///
/// * every ∀ edge's source (weakly, for pseudo-tuples) dominates its target;
/// * ∀/∃ in-degree counters match the adjacency lists;
/// * every real tuple outside the first coarse layer has ∀ in-degree ≥ 1
///   (so it can never be accessed before a dominator).
pub fn verify_edges(idx: &DualLayerIndex) {
    let n = idx.len();
    let total = n + idx.stats().pseudo_tuples;
    let mut forall_in = vec![0u32; total];
    let mut exists_in = vec![0u32; total];
    for s in 0..total as NodeId {
        for t in idx.forall_out(s) {
            let sc = idx.node_coords(s);
            let tc = idx.node_coords(t);
            if idx.is_real(s) {
                assert!(dominates(sc, tc), "∀ edge {s}→{t} without dominance");
            } else {
                assert!(
                    dominates_eq(sc, tc),
                    "pseudo ∀ edge {s}→{t} without weak dominance"
                );
            }
            forall_in[t as usize] += 1;
        }
        for t in idx.exists_out(s) {
            exists_in[t as usize] += 1;
        }
    }
    for v in 0..total as NodeId {
        assert_eq!(
            forall_in[v as usize],
            idx.forall_in_degree(v),
            "∀ in-degree mismatch at node {v}"
        );
        assert_eq!(
            exists_in[v as usize],
            idx.exists_in_degree(v),
            "∃ in-degree mismatch at node {v}"
        );
    }
    for (ci, layer) in idx.coarse_layers().iter().enumerate().skip(1) {
        for t in layer.members() {
            assert!(
                idx.forall_in_degree(t as NodeId) >= 1,
                "tuple {t} in coarse layer {ci} has no ∀ in-edge"
            );
        }
    }
}

/// Checks the score-level soundness that Lemmas 1–2 rely on, for one
/// weight vector:
///
/// * every ∀ in-neighbor of a node scores no higher than the node;
/// * every node with ∃ in-edges has an in-neighbor scoring strictly lower
///   (the EDS guarantee), so it is always unblocked before its turn.
pub fn verify_edge_soundness(idx: &DualLayerIndex, w: &Weights) {
    let n = idx.len();
    let total = n + idx.stats().pseudo_tuples;
    let score = |v: NodeId| w.score(idx.node_coords(v));
    // The lowest ∃ in-neighbor score of every node, from one pass over
    // the out-edges.
    let mut min_exists_in = vec![f64::INFINITY; total];
    for s in 0..total as NodeId {
        let ss = score(s);
        for t in idx.forall_out(s) {
            let st = score(t);
            assert!(
                ss <= st + 1e-12,
                "∀ in-neighbor {s} of {t} scores higher ({ss} > {st})"
            );
        }
        for t in idx.exists_out(s) {
            min_exists_in[t as usize] = min_exists_in[t as usize].min(ss);
        }
    }
    for t in 0..total as NodeId {
        if idx.exists_in_degree(t) > 0 {
            let (min_in, st) = (min_exists_in[t as usize], score(t));
            assert!(
                min_in < st + 1e-12,
                "no ∃ in-neighbor of {t} precedes it (min {min_in} vs {st})"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::DlOptions;
    use drtopk_common::relation::toy_dataset;
    use drtopk_common::{Distribution, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn toy_index_passes_all_invariants() {
        let r = toy_dataset();
        for opts in [
            DlOptions::dl(),
            DlOptions::dl_plus(),
            DlOptions::dg(),
            DlOptions::dg_plus(),
        ] {
            let idx = DualLayerIndex::build(&r, opts);
            verify_structure(&idx);
            verify_edges(&idx);
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..5 {
                verify_edge_soundness(&idx, &Weights::random(2, &mut rng));
            }
        }
    }

    #[test]
    fn random_indexes_pass_all_invariants() {
        let mut rng = StdRng::seed_from_u64(11);
        for dist in [Distribution::Independent, Distribution::AntiCorrelated] {
            for d in 2..=4 {
                let rel = WorkloadSpec::new(dist, d, 250, 31).generate();
                for opts in [DlOptions::dl_plus(), DlOptions::dg_plus()] {
                    let idx = DualLayerIndex::build(&rel, opts);
                    verify_structure(&idx);
                    verify_edges(&idx);
                    for _ in 0..3 {
                        verify_edge_soundness(&idx, &Weights::random(d, &mut rng));
                    }
                    assert_in_neighbors_transpose_out_edges(&idx);
                }
            }
        }
    }

    /// `forall_in`/`exists_in` of every node are the transpose of
    /// `forall_out`/`exists_out`.
    fn assert_in_neighbors_transpose_out_edges(idx: &DualLayerIndex) {
        let total = idx.len() + idx.stats().pseudo_tuples;
        let mut forall_in = vec![Vec::new(); total];
        let mut exists_in = vec![Vec::new(); total];
        for s in 0..total as NodeId {
            for t in idx.forall_out(s) {
                forall_in[t as usize].push(s);
            }
            for t in idx.exists_out(s) {
                exists_in[t as usize].push(s);
            }
        }
        for t in 0..total as NodeId {
            assert_eq!(idx.forall_in(t), forall_in[t as usize], "∀ into {t}");
            assert_eq!(idx.exists_in(t), exists_in[t as usize], "∃ into {t}");
        }
    }

    /// The toy DL index with one edge `d → a` forged into its snapshot: a
    /// dominates d, so d neither dominates a nor scores below it under
    /// any weight. The layers are untouched, so the snapshot still loads
    /// (the node permutation depends on layers, not edges).
    fn toy_index_with_forged_edge(exists: bool) -> DualLayerIndex {
        use drtopk_common::relation::toy_id;
        let idx = DualLayerIndex::build(&toy_dataset(), DlOptions::dl());
        let (a, d) = (toy_id('a') as NodeId, toy_id('d') as NodeId);
        assert_eq!(idx.exists_in_degree(a), 0, "a has no ∃ in-edges");
        let mut snap = idx.to_snapshot();
        if exists {
            snap.exists_edges.push((d, a));
        } else {
            snap.forall_edges.push((d, a));
        }
        let forged = DualLayerIndex::from_snapshot(&snap).expect("structurally sound");
        verify_structure(&forged);
        forged
    }

    #[test]
    #[should_panic(expected = "without dominance")]
    fn a_forged_forall_edge_fails_verify_edges() {
        verify_edges(&toy_index_with_forged_edge(false));
    }

    #[test]
    #[should_panic(expected = "precedes it")]
    fn a_forged_exists_edge_fails_verify_edge_soundness() {
        let idx = toy_index_with_forged_edge(true);
        verify_edges(&idx);
        verify_edge_soundness(&idx, &Weights::new(vec![0.5, 0.5]).unwrap());
    }

    #[test]
    fn toy_example_3_and_4_edge_sets() {
        use drtopk_common::relation::toy_id;
        let r = toy_dataset();
        let idx = DualLayerIndex::build(&r, DlOptions::dl());
        let id = |c: char| toy_id(c) as NodeId;
        // Example 3: a ∀-dominates exactly {d, e, i}.
        let mut a_out: Vec<NodeId> = idx.forall_out(id('a')).to_vec();
        a_out.sort_unstable();
        assert_eq!(a_out, vec![id('d'), id('e'), id('i')]);
        // Example 4: i's ∀-dominators are {a, f}; j's are {b, g}.
        assert_eq!(idx.forall_in(id('i')), vec![id('a'), id('f')]);
        assert_eq!(idx.forall_in(id('j')), vec![id('b'), id('g')]);
        // Examples 2-3: a, b ∃-dominate f; b, c ∃-dominate g.
        assert_eq!(idx.exists_in(id('f')), vec![id('a'), id('b')]);
        assert_eq!(idx.exists_in(id('g')), vec![id('b'), id('c')]);
        // Example 4: first fine sublayers {a,b,c}, {d,e,j}, {h,k} are ∃-free.
        for c in ['a', 'b', 'c', 'd', 'e', 'j', 'h', 'k'] {
            assert_eq!(idx.exists_in_degree(id(c)), 0, "{c} must be ∃-free");
        }
        // i is ∃-dominated by e and j (facet {e, j}).
        assert_eq!(idx.exists_in(id('i')), vec![id('e'), id('j')]);
    }

    #[test]
    fn toy_fine_sublayers_match_example_3() {
        use drtopk_common::relation::toy_id;
        let r = toy_dataset();
        let idx = DualLayerIndex::build(&r, DlOptions::dl());
        let layers = idx.coarse_layers();
        assert_eq!(layers.len(), 3);
        let fine: Vec<Vec<Vec<char>>> = layers
            .iter()
            .map(|l| {
                l.fine
                    .iter()
                    .map(|f| {
                        let mut v: Vec<char> =
                            f.iter().map(|&t| (b'a' + t as u8) as char).collect();
                        v.sort_unstable();
                        v
                    })
                    .collect()
            })
            .collect();
        assert_eq!(fine[0], vec![vec!['a', 'b', 'c'], vec!['f', 'g']]);
        assert_eq!(fine[1], vec![vec!['d', 'e', 'j'], vec!['i']]);
        assert_eq!(fine[2], vec![vec!['h', 'k']]);
        let _ = toy_id('a');
    }
}
