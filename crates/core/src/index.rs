//! The index structure: layers, dominance edges, and pseudo-tuples.
//!
//! # Internal node numbering
//!
//! Queries traverse the layer DAG in roughly (coarse layer, fine sublayer,
//! score) order, so the index renumbers nodes at build time into exactly
//! that *traversal order*: real nodes get internal ids `0..n` sorted by
//! (coarse layer, fine sublayer, attribute sum, tuple id), pseudo nodes get
//! `n..n+p` sorted the same way within their own sublayers. All adjacency
//! (the crate-internal `EdgeArena`), in-degree arrays, seeds, the 2-d
//! chain, and the scoring
//! columns are stored in internal space, which turns the query's
//! relaxation loops and score gathers into near-sequential memory scans.
//! The permutation ([`DualLayerIndex::node_permutation`]) is applied only
//! at the API boundary: every public accessor speaks original `TupleId`s.

use crate::options::DlOptions;
use crate::zero::Zero2d;
use drtopk_common::{Columns, Relation, TupleId};

/// Node identifier inside the index graph. Values below `n` are real tuple
/// ids; values `n..n+p` address zero-layer pseudo-tuples. Both the public
/// (original) and the internal (traversal-ordered) numbering use this
/// type; public APIs always speak the original numbering.
pub type NodeId = u32;

/// Compressed sparse row adjacency over index nodes.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

impl Csr {
    /// Builds a CSR from an edge list, also returning per-node in-degrees.
    pub fn from_edges(node_count: usize, edges: &mut [(NodeId, NodeId)]) -> (Csr, Vec<u32>) {
        let mut offsets = vec![0u32; node_count + 1];
        let mut indeg = vec![0u32; node_count];
        for &(s, t) in edges.iter() {
            offsets[s as usize + 1] += 1;
            indeg[t as usize] += 1;
        }
        for i in 0..node_count {
            offsets[i + 1] += offsets[i];
        }
        let mut targets = vec![0u32; edges.len()];
        let mut cursor = offsets.clone();
        for &(s, t) in edges.iter() {
            let c = &mut cursor[s as usize];
            targets[*c as usize] = t;
            *c += 1;
        }
        (Csr { offsets, targets }, indeg)
    }

    /// Out-neighbors of `node`.
    #[inline]
    pub fn out(&self, node: NodeId) -> &[NodeId] {
        let s = self.offsets[node as usize] as usize;
        let e = self.offsets[node as usize + 1] as usize;
        &self.targets[s..e]
    }

    /// Total edge count.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }
}

/// Shared adjacency arena in internal (traversal-ordered) node space.
///
/// Each node's ∀ and ∃ out-targets live in one contiguous region of a
/// single target vector — `[∀ targets…, ∃ targets…]` — each segment sorted
/// by internal id. A pop therefore relaxes one contiguous, mostly-ascending
/// run of the arena instead of two scattered CSR slices, which is the
/// cache-locality half of the traversal-ordered layout.
#[derive(Debug, Clone, Default)]
pub(crate) struct EdgeArena {
    /// Start of node `i`'s region: `node_off[i]..node_off[i+1]`.
    node_off: Vec<u32>,
    /// End of node `i`'s ∀ segment (start of its ∃ segment).
    forall_end: Vec<u32>,
    /// All targets, internal ids, per-segment ascending.
    targets: Vec<NodeId>,
}

impl EdgeArena {
    /// Packs internal-space ∀/∃ edge lists into one arena, also returning
    /// per-node (∀, ∃) in-degrees.
    pub(crate) fn build(
        node_count: usize,
        forall_edges: &[(NodeId, NodeId)],
        exists_edges: &[(NodeId, NodeId)],
    ) -> (EdgeArena, Vec<u32>, Vec<u32>) {
        let mut fdeg = vec![0u32; node_count];
        let mut edeg = vec![0u32; node_count];
        let mut findeg = vec![0u32; node_count];
        let mut eindeg = vec![0u32; node_count];
        for &(s, t) in forall_edges {
            fdeg[s as usize] += 1;
            findeg[t as usize] += 1;
        }
        for &(s, t) in exists_edges {
            edeg[s as usize] += 1;
            eindeg[t as usize] += 1;
        }
        let mut node_off = vec![0u32; node_count + 1];
        let mut forall_end = vec![0u32; node_count];
        for i in 0..node_count {
            forall_end[i] = node_off[i] + fdeg[i];
            node_off[i + 1] = forall_end[i] + edeg[i];
        }
        let mut targets = vec![0u32; forall_edges.len() + exists_edges.len()];
        let mut fcur: Vec<u32> = (0..node_count).map(|i| node_off[i]).collect();
        for &(s, t) in forall_edges {
            let c = &mut fcur[s as usize];
            targets[*c as usize] = t;
            *c += 1;
        }
        let mut ecur: Vec<u32> = forall_end.clone();
        for &(s, t) in exists_edges {
            let c = &mut ecur[s as usize];
            targets[*c as usize] = t;
            *c += 1;
        }
        for i in 0..node_count {
            targets[node_off[i] as usize..forall_end[i] as usize].sort_unstable();
            targets[forall_end[i] as usize..node_off[i + 1] as usize].sort_unstable();
        }
        (
            EdgeArena {
                node_off,
                forall_end,
                targets,
            },
            findeg,
            eindeg,
        )
    }

    /// ∀ out-targets of internal node `i` (internal ids, ascending).
    #[inline]
    pub(crate) fn forall_out(&self, i: NodeId) -> &[NodeId] {
        &self.targets[self.node_off[i as usize] as usize..self.forall_end[i as usize] as usize]
    }

    /// ∃ out-targets of internal node `i` (internal ids, ascending).
    #[inline]
    pub(crate) fn exists_out(&self, i: NodeId) -> &[NodeId] {
        &self.targets[self.forall_end[i as usize] as usize..self.node_off[i as usize + 1] as usize]
    }

    /// Both segments of internal node `i` at once: `(∀ targets, ∃ targets)`.
    #[inline]
    pub(crate) fn both(&self, i: NodeId) -> (&[NodeId], &[NodeId]) {
        let lo = self.node_off[i as usize] as usize;
        let mid = self.forall_end[i as usize] as usize;
        let hi = self.node_off[i as usize + 1] as usize;
        let region = &self.targets[lo..hi];
        region.split_at(mid - lo)
    }
}

/// One coarse layer: its fine sublayers in order. The layer's member set
/// is the concatenation of the sublayers.
#[derive(Debug, Clone)]
pub struct CoarseLayer {
    /// The fine sublayers, in peeling order.
    pub fine: Vec<Vec<TupleId>>,
}

impl CoarseLayer {
    /// All tuples of the coarse layer (concatenated sublayers).
    pub fn members(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.fine.iter().flatten().copied()
    }

    /// Total tuple count.
    pub fn len(&self) -> usize {
        self.fine.iter().map(|f| f.len()).sum()
    }

    /// Whether the layer is empty (never true for built indexes).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Summary counters describing a built index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexStats {
    /// Tuples in the indexed relation.
    pub n: usize,
    /// Attribute dimensionality.
    pub dims: usize,
    /// Number of coarse layers (iterated skylines).
    pub coarse_layers: usize,
    /// Total fine sublayers across all coarse layers.
    pub fine_layers: usize,
    /// ∀-dominance edges materialized.
    pub forall_edges: usize,
    /// ∃-dominance edges materialized.
    pub exists_edges: usize,
    /// Zero-layer pseudo-tuples (0 without a clustered zero layer).
    pub pseudo_tuples: usize,
    /// Initially-free nodes that seed every query's queue.
    pub seeds: usize,
    /// Tuples in the first coarse layer `L¹`.
    pub first_layer_size: usize,
    /// Tuples in the first fine sublayer `L¹¹`.
    pub first_fine_size: usize,
}

impl IndexStats {
    /// The structural gauges as `(name, help, value)` rows, exported as
    /// `drtopk_index_<name>` by `drtopk stats` and by a single-index
    /// server's `/metrics`.
    pub fn gauge_rows(&self) -> [(&'static str, &'static str, u64); 10] {
        [
            ("tuples", "Tuples in the indexed relation", self.n as u64),
            ("dims", "Attribute dimensionality", self.dims as u64),
            ("coarse_layers", "Coarse layers", self.coarse_layers as u64),
            ("fine_sublayers", "Fine sublayers", self.fine_layers as u64),
            (
                "forall_edges",
                "Forall-dominance edges",
                self.forall_edges as u64,
            ),
            (
                "exists_edges",
                "Exists-dominance edges",
                self.exists_edges as u64,
            ),
            (
                "pseudo_tuples",
                "Zero-layer pseudo-tuples",
                self.pseudo_tuples as u64,
            ),
            (
                "first_layer_size",
                "Tuples in L1",
                self.first_layer_size as u64,
            ),
            (
                "first_fine_size",
                "Tuples in L11",
                self.first_fine_size as u64,
            ),
            (
                "query_seeds",
                "Initially-free query seeds",
                self.seeds as u64,
            ),
        ]
    }
}

/// The dual-resolution layer index (see crate docs).
///
/// Build with [`DualLayerIndex::build`]; query with
/// [`DualLayerIndex::topk`](crate::query). The index owns a copy of the
/// relation so queries can score tuples without external state.
#[derive(Debug, Clone)]
pub struct DualLayerIndex {
    pub(crate) rel: Relation,
    pub(crate) opts: DlOptions,
    pub(crate) layers: Vec<CoarseLayer>,
    /// ∀/∃ adjacency, internal node space (see module docs).
    pub(crate) arena: EdgeArena,
    /// Per-node ∀ in-degree, internal-indexed.
    pub(crate) forall_indeg: Vec<u32>,
    /// Per-node ∃ in-degree, internal-indexed.
    pub(crate) exists_indeg: Vec<u32>,
    /// Reverse ∀ adjacency (internal space), built once so in-neighbor
    /// queries are O(degree) instead of a full edge scan.
    pub(crate) rev_forall: Csr,
    /// Reverse ∃ adjacency (internal space).
    pub(crate) rev_exists: Csr,
    /// Original (public) id → internal id.
    pub(crate) node_perm: Vec<NodeId>,
    /// Internal id → original (public) id.
    pub(crate) node_orig: Vec<NodeId>,
    /// Pseudo-tuple coordinates, row-major (`pseudo_count × dims`), in
    /// *original* pseudo-local order (snapshots serialize this verbatim).
    pub(crate) pseudo: Vec<f64>,
    pub(crate) pseudo_count: usize,
    /// Fine-sublayer grouping of pseudo nodes (original local indices),
    /// used by stats/verification.
    pub(crate) pseudo_fine: Vec<Vec<u32>>,
    pub(crate) zero2d: Option<Zero2d>,
    /// 2-d chain position → internal node id (empty without a 2-d zero
    /// layer).
    pub(crate) chain_internal: Vec<NodeId>,
    /// Internal node id → 2-d chain position (`u32::MAX` for non-chain
    /// nodes; empty without a 2-d zero layer).
    pub(crate) chain_pos_of: Vec<u32>,
    /// Nodes free at query start, internal ids ascending (chain members
    /// excluded in 2-d mode).
    pub(crate) seeds: Vec<NodeId>,
    /// Column-major mirror of all node coordinates in *internal* order, so
    /// the traversal's scoring kernel gathers near-sequential rows.
    pub(crate) columns: Columns,
    pub(crate) stats: IndexStats,
}

impl DualLayerIndex {
    /// Number of real tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.rel.len()
    }

    /// Whether the indexed relation is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rel.is_empty()
    }

    /// Dimensionality of the indexed relation.
    #[inline]
    pub fn dims(&self) -> usize {
        self.rel.dims()
    }

    /// The indexed relation.
    #[inline]
    pub fn relation(&self) -> &Relation {
        &self.rel
    }

    /// Build options used.
    #[inline]
    pub fn options(&self) -> &DlOptions {
        &self.opts
    }

    /// The coarse layers (with their fine sublayers).
    #[inline]
    pub fn coarse_layers(&self) -> &[CoarseLayer] {
        &self.layers
    }

    /// Summary statistics.
    #[inline]
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// Coordinates of a node (original numbering): a real tuple's
    /// attributes or a pseudo-tuple's min-corner.
    #[inline]
    pub fn node_coords(&self, node: NodeId) -> &[f64] {
        let n = self.rel.len();
        if (node as usize) < n {
            self.rel.tuple(node)
        } else {
            let d = self.rel.dims();
            let p = node as usize - n;
            &self.pseudo[p * d..(p + 1) * d]
        }
    }

    /// Column-major (SoA) view of all node coordinates in *internal*
    /// (traversal) order — row `i` holds the coordinates of internal node
    /// `i`; translate with [`DualLayerIndex::node_original`]. This is the
    /// traversal's scoring-kernel operand.
    #[inline]
    pub fn columns(&self) -> &Columns {
        &self.columns
    }

    /// Whether a node is a real tuple (vs. a zero-layer pseudo-tuple).
    /// Real nodes occupy `0..n` in both the original and the internal
    /// numbering, so this predicate is valid in either space.
    #[inline]
    pub fn is_real(&self, node: NodeId) -> bool {
        (node as usize) < self.rel.len()
    }

    /// Total node count (real tuples plus zero-layer pseudo-tuples) — the
    /// size of the unified node space scratch memory is indexed by.
    #[inline]
    pub(crate) fn total_nodes(&self) -> usize {
        self.rel.len() + self.pseudo_count
    }

    /// The traversal-order permutation: `node_permutation()[orig]` is the
    /// internal id of original node `orig`. Real nodes map to `0..n`,
    /// pseudo nodes to `n..n+p`.
    #[inline]
    pub fn node_permutation(&self) -> &[NodeId] {
        &self.node_perm
    }

    /// The inverse permutation: `node_original()[internal]` is the
    /// original id of internal node `internal`.
    #[inline]
    pub fn node_original(&self) -> &[NodeId] {
        &self.node_orig
    }

    /// The zero layer's pseudo-tuples grouped by fine sublayer (original
    /// local pseudo indices: node id = `len() + local`). Empty without a
    /// clustered zero layer.
    #[inline]
    pub fn pseudo_fine_layers(&self) -> &[Vec<u32>] {
        &self.pseudo_fine
    }

    /// ∀-dominance out-edges of a node, original ids ascending.
    pub fn forall_out(&self, node: NodeId) -> Vec<NodeId> {
        self.translate_sorted(self.arena.forall_out(self.node_perm[node as usize]))
    }

    /// ∃-dominance out-edges of a node, original ids ascending.
    pub fn exists_out(&self, node: NodeId) -> Vec<NodeId> {
        self.translate_sorted(self.arena.exists_out(self.node_perm[node as usize]))
    }

    /// ∀ in-degree of a node.
    #[inline]
    pub fn forall_in_degree(&self, node: NodeId) -> u32 {
        self.forall_indeg[self.node_perm[node as usize] as usize]
    }

    /// ∃ in-degree of a node.
    #[inline]
    pub fn exists_in_degree(&self, node: NodeId) -> u32 {
        self.exists_indeg[self.node_perm[node as usize] as usize]
    }

    /// ∀ in-neighbors of `node`, original ids ascending. O(in-degree) via
    /// the prebuilt reverse CSR.
    pub fn forall_in(&self, node: NodeId) -> Vec<NodeId> {
        self.translate_sorted(self.rev_forall.out(self.node_perm[node as usize]))
    }

    /// ∃ in-neighbors of `node`, original ids ascending. O(in-degree) via
    /// the prebuilt reverse CSR.
    pub fn exists_in(&self, node: NodeId) -> Vec<NodeId> {
        self.translate_sorted(self.rev_exists.out(self.node_perm[node as usize]))
    }

    fn translate_sorted(&self, internal: &[NodeId]) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = internal
            .iter()
            .map(|&i| self.node_orig[i as usize])
            .collect();
        v.sort_unstable();
        v
    }

    /// The 2-d exact zero layer, if built.
    #[inline]
    pub fn zero2d(&self) -> Option<&Zero2d> {
        self.zero2d.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_roundtrip() {
        let mut edges = vec![(0u32, 2u32), (0, 1), (2, 3), (1, 3)];
        let (csr, indeg) = Csr::from_edges(4, &mut edges);
        assert_eq!(csr.out(0), &[2, 1]);
        assert_eq!(csr.out(1), &[3]);
        assert_eq!(csr.out(2), &[3]);
        assert!(csr.out(3).is_empty());
        assert_eq!(indeg, vec![0, 1, 1, 2]);
        assert_eq!(csr.edge_count(), 4);
    }

    #[test]
    fn csr_empty() {
        let (csr, indeg) = Csr::from_edges(3, &mut Vec::new());
        assert_eq!(csr.edge_count(), 0);
        assert_eq!(indeg, vec![0, 0, 0]);
        assert!(csr.out(2).is_empty());
    }

    #[test]
    fn arena_packs_and_sorts_segments() {
        let forall = vec![(0u32, 3u32), (0, 1), (2, 3)];
        let exists = vec![(0u32, 2u32), (1, 3), (0, 1)];
        let (arena, findeg, eindeg) = EdgeArena::build(4, &forall, &exists);
        assert_eq!(arena.forall_out(0), &[1, 3]);
        assert_eq!(arena.exists_out(0), &[1, 2]);
        assert_eq!(arena.both(0), (&[1u32, 3u32][..], &[1u32, 2u32][..]));
        assert_eq!(arena.forall_out(1), &[] as &[u32]);
        assert_eq!(arena.exists_out(1), &[3]);
        assert_eq!(arena.forall_out(2), &[3]);
        assert_eq!(arena.both(3), (&[][..], &[][..]));
        assert_eq!(findeg, vec![0, 1, 0, 2]);
        assert_eq!(eindeg, vec![0, 1, 1, 1]);
    }

    #[test]
    fn arena_empty() {
        let (arena, findeg, eindeg) = EdgeArena::build(2, &[], &[]);
        assert!(arena.forall_out(1).is_empty());
        assert!(arena.exists_out(0).is_empty());
        assert_eq!(findeg, vec![0, 0]);
        assert_eq!(eindeg, vec![0, 0]);
    }
}
