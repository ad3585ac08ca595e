//! Plain-data snapshots of a built index, for persistence.
//!
//! A [`IndexSnapshot`] captures every field of a [`DualLayerIndex`] as
//! flat vectors so a storage layer can serialize it without rebuilding
//! (index construction is the expensive part — Table IV). Round-tripping
//! through a snapshot reproduces the index exactly, including query costs.

use crate::index::{CoarseLayer, DualLayerIndex, NodeId};
use crate::options::DlOptions;
use crate::zero::Zero2d;
use drtopk_common::{Error, Relation, TupleId};

/// Flat, public representation of a built index.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSnapshot {
    /// Attribute dimensionality.
    pub dims: usize,
    /// Row-major relation payload.
    pub data: Vec<f64>,
    /// Fine sublayers, flattened: `(coarse, fine, members)` in order.
    pub fine_layers: Vec<(u32, u32, Vec<TupleId>)>,
    /// ∀ edges as (source, target) pairs.
    pub forall_edges: Vec<(NodeId, NodeId)>,
    /// ∃ edges as (source, target) pairs.
    pub exists_edges: Vec<(NodeId, NodeId)>,
    /// Pseudo-tuple payload (row-major).
    pub pseudo: Vec<f64>,
    /// Pseudo-tuple fine grouping: one member list per pseudo sublayer.
    pub pseudo_fine: Vec<Vec<u32>>,
    /// 2-d zero layer chain, if present.
    pub zero2d_chain: Option<Vec<TupleId>>,
    /// Weight-range breakpoints of the 2-d zero layer (empty without one).
    pub zero2d_breakpoints: Vec<f64>,
    /// Build option recorded for provenance: whether fine splitting was on.
    pub split_fine: bool,
    /// Build option recorded for provenance: the fine sublayer cap.
    pub max_fine_layers: usize,
    /// Traversal-order node permutation (`perm[original] = internal`).
    /// Purely derived from the layer structure; persisted so loaders can
    /// cross-check the layout and older snapshots (empty vector) still
    /// load — the permutation is then recomputed.
    pub node_perm: Vec<NodeId>,
}

impl IndexSnapshot {
    /// Number of real (non-pseudo) tuples captured in the snapshot.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dims).unwrap_or(0)
    }

    /// Whether the snapshot holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks that this snapshot can serve queries under `opts` (and, when
    /// given, over `expected_dims`-dimensional weight vectors).
    ///
    /// Snapshots record the build options that shape the stored structure
    /// (`split_fine`, `max_fine_layers`); loading one under different
    /// options would silently answer queries with the *persisted* layout
    /// while the caller believes the *requested* one is in effect. This
    /// turns that mismatch into a clear [`Error::Invalid`] at load time.
    pub fn check_compatible(
        &self,
        opts: &DlOptions,
        expected_dims: Option<usize>,
    ) -> Result<(), Error> {
        if let Some(d) = expected_dims {
            if self.dims != d {
                return Err(Error::Invalid(format!(
                    "snapshot is {}-dimensional but {d} dimensions were requested",
                    self.dims
                )));
            }
        }
        if self.split_fine != opts.split_fine {
            return Err(Error::Invalid(format!(
                "snapshot was built with split_fine={} but split_fine={} was requested; \
                 rebuild the index or load with matching options",
                self.split_fine, opts.split_fine
            )));
        }
        if self.split_fine && self.max_fine_layers != opts.max_fine_layers {
            return Err(Error::Invalid(format!(
                "snapshot was built with max_fine_layers={} but {} was requested; \
                 rebuild the index or load with matching options",
                self.max_fine_layers, opts.max_fine_layers
            )));
        }
        Ok(())
    }
}

impl DualLayerIndex {
    /// Extracts a snapshot of this index.
    pub fn to_snapshot(&self) -> IndexSnapshot {
        let n = self.len();
        let total = n + self.stats().pseudo_tuples;
        let mut fine_layers = Vec::new();
        for (ci, layer) in self.coarse_layers().iter().enumerate() {
            for (fi, f) in layer.fine.iter().enumerate() {
                fine_layers.push((ci as u32, fi as u32, f.clone()));
            }
        }
        // Edges are stored in public (original-id) space, canonically
        // sorted by (source, target) — a representation independent of the
        // in-memory traversal ordering.
        let mut forall_edges = Vec::new();
        let mut exists_edges = Vec::new();
        for s in 0..total as NodeId {
            for t in self.forall_out(s) {
                forall_edges.push((s, t));
            }
            for t in self.exists_out(s) {
                exists_edges.push((s, t));
            }
        }
        forall_edges.sort_unstable();
        exists_edges.sort_unstable();
        IndexSnapshot {
            dims: self.dims(),
            data: self.relation().flat().to_vec(),
            fine_layers,
            forall_edges,
            exists_edges,
            pseudo: self.pseudo.clone(),
            pseudo_fine: self.pseudo_fine.clone(),
            zero2d_chain: self.zero2d().map(|z| z.chain.clone()),
            zero2d_breakpoints: self
                .zero2d()
                .map(|z| z.breakpoints.clone())
                .unwrap_or_default(),
            split_fine: self.options().split_fine,
            max_fine_layers: self.options().max_fine_layers,
            node_perm: self.node_permutation().to_vec(),
        }
    }

    /// Reconstructs an index from a snapshot.
    ///
    /// Validates structural consistency (layer partition, edge endpoints in
    /// range) and returns [`Error::Invalid`] on malformed input; edge
    /// *semantics* (that each edge reflects a true dominance relationship)
    /// can be checked separately with [`crate::verify`].
    pub fn from_snapshot(snap: &IndexSnapshot) -> Result<DualLayerIndex, Error> {
        if snap.dims == 0 {
            return Err(Error::InvalidDimension(0));
        }
        if !snap.data.len().is_multiple_of(snap.dims)
            || !snap.pseudo.len().is_multiple_of(snap.dims)
        {
            return Err(Error::DimensionMismatch {
                expected: snap.dims,
                got: snap.data.len() % snap.dims,
            });
        }
        // Snapshots typically arrive from decoded files: validate values,
        // not just shape, so corrupt payloads can't smuggle out-of-range
        // coordinates past the traversal's invariants.
        let rel = Relation::from_flat(snap.dims, snap.data.clone())?;
        let n = rel.len();
        let pseudo_count = snap.pseudo.len() / snap.dims;
        let total = n + pseudo_count;

        // Rebuild the coarse/fine structure, checking the partition.
        let mut layers: Vec<CoarseLayer> = Vec::new();
        let mut covered = vec![false; n];
        for &(ci, fi, ref members) in &snap.fine_layers {
            if ci as usize >= layers.len() {
                if ci as usize != layers.len() {
                    return Err(Error::Invalid("non-contiguous coarse layer ids".into()));
                }
                layers.push(CoarseLayer { fine: Vec::new() });
            }
            let layer = &mut layers[ci as usize];
            if fi as usize != layer.fine.len() {
                return Err(Error::Invalid("non-contiguous fine layer ids".into()));
            }
            for &t in members {
                let Some(slot) = covered.get_mut(t as usize) else {
                    return Err(Error::Invalid(format!("tuple id {t} out of range")));
                };
                if *slot {
                    return Err(Error::Invalid(format!("tuple {t} in two layers")));
                }
                *slot = true;
            }
            layer.fine.push(members.clone());
        }
        if covered.iter().any(|&c| !c) {
            return Err(Error::Invalid("layers do not cover the relation".into()));
        }

        let check_edges = |edges: &[(NodeId, NodeId)]| -> Result<(), Error> {
            for &(s, t) in edges {
                if s as usize >= total || t as usize >= total {
                    return Err(Error::Invalid(format!("edge ({s},{t}) out of range")));
                }
            }
            Ok(())
        };
        check_edges(&snap.forall_edges)?;
        check_edges(&snap.exists_edges)?;
        for group in &snap.pseudo_fine {
            if group.iter().any(|&g| g as usize >= pseudo_count) {
                return Err(Error::Invalid("pseudo_fine index out of range".into()));
            }
        }
        let zero2d = match &snap.zero2d_chain {
            Some(chain) => {
                if chain.iter().any(|&t| t as usize >= n) {
                    return Err(Error::Invalid("zero-layer chain id out of range".into()));
                }
                if snap.zero2d_breakpoints.len() + 1 != chain.len() {
                    return Err(Error::Invalid(
                        "breakpoint count must be |chain| - 1".into(),
                    ));
                }
                if snap.zero2d_breakpoints.windows(2).any(|w| w[0] < w[1])
                    || snap.zero2d_breakpoints.iter().any(|b| !b.is_finite())
                {
                    return Err(Error::Invalid(
                        "zero-layer breakpoints must be finite and non-increasing".into(),
                    ));
                }
                Some(Zero2d {
                    chain: chain.clone(),
                    breakpoints: snap.zero2d_breakpoints.clone(),
                })
            }
            None => None,
        };

        let opts = DlOptions {
            split_fine: snap.split_fine,
            max_fine_layers: snap.max_fine_layers,
            ..DlOptions::default()
        };
        // The shared assembly path recomputes the traversal ordering, the
        // edge arena, seeds, and stats exactly as a fresh build would.
        let idx = crate::assemble::assemble(
            &rel,
            opts,
            layers,
            &snap.forall_edges,
            &snap.exists_edges,
            snap.pseudo.clone(),
            pseudo_count,
            snap.pseudo_fine.clone(),
            zero2d,
        );
        // Cross-check a stored permutation (empty = pre-layout snapshot,
        // nothing to check): a mismatch means the snapshot's structure and
        // its recorded layout disagree, i.e. corruption.
        if !snap.node_perm.is_empty() && snap.node_perm != *idx.node_permutation() {
            return Err(Error::Invalid(
                "stored node permutation does not match the snapshot's layer structure".into(),
            ));
        }
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::DlOptions;
    use drtopk_common::{Distribution, Weights, WorkloadSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_preserves_results_and_costs() {
        let mut rng = StdRng::seed_from_u64(3);
        for d in [2, 3] {
            let rel = WorkloadSpec::new(Distribution::AntiCorrelated, d, 300, 77).generate();
            for opts in [DlOptions::dl(), DlOptions::dl_plus(), DlOptions::dg_plus()] {
                let idx = DualLayerIndex::build(&rel, opts);
                let snap = idx.to_snapshot();
                let back = DualLayerIndex::from_snapshot(&snap).expect("valid snapshot");
                assert_eq!(back.stats(), idx.stats());
                for k in [1, 10, 40] {
                    let w = Weights::random(d, &mut rng);
                    let a = idx.topk(&w, k);
                    let b = back.topk(&w, k);
                    assert_eq!(a.ids, b.ids);
                    assert_eq!(a.cost, b.cost, "costs must survive the roundtrip");
                }
            }
        }
    }

    #[test]
    fn compatibility_check_catches_option_mismatches() {
        let rel = WorkloadSpec::new(Distribution::Independent, 3, 60, 11).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());
        let snap = idx.to_snapshot();

        assert!(snap.check_compatible(&DlOptions::dl_plus(), None).is_ok());
        assert!(snap
            .check_compatible(&DlOptions::dl_plus(), Some(3))
            .is_ok());
        assert!(matches!(
            snap.check_compatible(&DlOptions::dl_plus(), Some(4)),
            Err(Error::Invalid(_))
        ));
        assert!(matches!(
            snap.check_compatible(&DlOptions::dg_plus(), None),
            Err(Error::Invalid(_))
        ));
        let capped = DlOptions {
            max_fine_layers: 2,
            ..DlOptions::dl_plus()
        };
        assert!(matches!(
            snap.check_compatible(&capped, None),
            Err(Error::Invalid(_))
        ));

        // DG snapshots ignore the fine-layer cap: it only shapes structure
        // when splitting is on.
        let dg = DualLayerIndex::build(&rel, DlOptions::dg()).to_snapshot();
        let dg_capped = DlOptions {
            max_fine_layers: 7,
            ..DlOptions::dg()
        };
        assert!(dg.check_compatible(&dg_capped, None).is_ok());
        assert_eq!(snap.len(), 60);
        assert!(!snap.is_empty());
    }

    #[test]
    fn rejects_corrupted_snapshots() {
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 50, 1).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl());
        let snap = idx.to_snapshot();

        // Every structural check reports `Error::Invalid`.
        let invalid = |snap: &IndexSnapshot| match DualLayerIndex::from_snapshot(snap) {
            Err(Error::Invalid(msg)) => msg,
            other => panic!("expected Error::Invalid, got {:?}", other.err()),
        };

        let mut missing = snap.clone();
        missing.fine_layers.pop();
        assert_eq!(invalid(&missing), "layers do not cover the relation");

        let mut bad_edge = snap.clone();
        bad_edge.forall_edges.push((9999, 0));
        assert_eq!(invalid(&bad_edge), "edge (9999,0) out of range");

        let mut dup = snap.clone();
        let members = dup.fine_layers[0].2.clone();
        let first = members[0];
        dup.fine_layers
            .push((dup.fine_layers.last().unwrap().0 + 1, 0, members));
        assert_eq!(invalid(&dup), format!("tuple {first} in two layers"));

        let mut bad_zero = DualLayerIndex::build(&rel, DlOptions::dl_plus()).to_snapshot();
        assert!(bad_zero.zero2d_chain.is_some(), "2-d DL+ has a chain");
        bad_zero.zero2d_breakpoints.push(0.5);
        assert_eq!(invalid(&bad_zero), "breakpoint count must be |chain| - 1");
    }
}
