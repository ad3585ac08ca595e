//! Disk-block I/O cost model.
//!
//! The paper keeps all indexes in main memory but notes they "can be
//! modified into disk-based algorithms, where tuples in the same layer are
//! stored in the same disk block to reduce I/O cost" (Section VI-A,
//! following DG \[5\]). This module makes that concrete: a [`BlockLayout`]
//! assigns every tuple to a fixed-size block — either clustered by
//! (coarse, fine) layer order or in raw insertion order — and counts how
//! many distinct blocks a query's access set touches.

use drtopk_common::{TupleId, Weights};
use drtopk_core::DualLayerIndex;

/// How tuples are placed into blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Tuples laid out following the index's layer order (the paper's
    /// recommendation): queries touch few, dense blocks.
    LayerClustered,
    /// Tuples laid out by insertion order (the naive heap file).
    InsertionOrder,
}

/// A tuple → block assignment with a fixed number of tuples per block.
#[derive(Debug, Clone)]
pub struct BlockLayout {
    block_of: Vec<u32>,
    blocks: usize,
    block_size: usize,
}

impl BlockLayout {
    /// Builds a layout for the index's relation.
    ///
    /// # Panics
    /// Panics if `block_size` is zero.
    pub fn new(idx: &DualLayerIndex, placement: Placement, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let n = idx.len();
        let mut block_of = vec![0u32; n];
        match placement {
            Placement::InsertionOrder => {
                for (t, b) in block_of.iter_mut().enumerate() {
                    *b = (t / block_size) as u32;
                }
            }
            Placement::LayerClustered => {
                let mut slot = 0usize;
                for layer in idx.coarse_layers() {
                    for fine in &layer.fine {
                        for &t in fine {
                            block_of[t as usize] = (slot / block_size) as u32;
                            slot += 1;
                        }
                    }
                }
                debug_assert_eq!(slot, n);
            }
        }
        let blocks = n.div_ceil(block_size);
        BlockLayout {
            block_of,
            blocks,
            block_size,
        }
    }

    /// Block id of a tuple.
    #[inline]
    pub fn block_of(&self, t: TupleId) -> u32 {
        self.block_of[t as usize]
    }

    /// Total number of blocks.
    #[inline]
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Tuples per block.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of distinct blocks an access set touches — the I/O cost of
    /// a query under this layout.
    pub fn blocks_touched(&self, accesses: &[TupleId]) -> usize {
        let mut touched = vec![false; self.blocks];
        let mut count = 0;
        for &t in accesses {
            let b = self.block_of[t as usize] as usize;
            if !touched[b] {
                touched[b] = true;
                count += 1;
            }
        }
        count
    }
}

/// The set of *real* tuples a query evaluates (pseudo-tuples live in the
/// in-memory directory, not in data blocks). The result is sorted and
/// deduplicated; its length equals the query's `cost.evaluated`.
pub fn query_accesses(idx: &DualLayerIndex, w: &Weights, k: usize) -> Vec<TupleId> {
    let n = idx.len() as u32;
    let (_, mut acc) = idx.topk_evaluated(w, k);
    acc.retain(|&t| t < n);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtopk_common::{Distribution, WorkloadSpec};
    use drtopk_core::DlOptions;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn accesses_match_cost_metric() {
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, 3, 500, 8).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl());
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..5 {
            let w = Weights::random(3, &mut rng);
            let res = idx.topk(&w, 10);
            let acc = query_accesses(&idx, &w, 10);
            assert_eq!(acc.len() as u64, res.cost.evaluated);
            assert!(
                res.ids.iter().all(|t| acc.contains(t)),
                "answers are accesses"
            );
        }
    }

    #[test]
    fn layer_clustering_reduces_block_reads() {
        // Shuffle insertion order so it is uncorrelated with layers, then
        // layer-clustered placement must touch far fewer blocks.
        let rel = WorkloadSpec::new(Distribution::AntiCorrelated, 4, 2000, 11).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl());
        let clustered = BlockLayout::new(&idx, Placement::LayerClustered, 32);
        let heap_file = BlockLayout::new(&idx, Placement::InsertionOrder, 32);
        let mut rng = StdRng::seed_from_u64(17);
        let (mut io_clustered, mut io_heap) = (0usize, 0usize);
        for _ in 0..10 {
            let w = Weights::random(4, &mut rng);
            let acc = query_accesses(&idx, &w, 10);
            io_clustered += clustered.blocks_touched(&acc);
            io_heap += heap_file.blocks_touched(&acc);
        }
        assert!(
            io_clustered < io_heap,
            "layer clustering must reduce I/O: {io_clustered} vs {io_heap}"
        );
    }

    #[test]
    fn layout_covers_all_tuples_once() {
        let rel = WorkloadSpec::new(Distribution::Independent, 3, 333, 5).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl_plus());
        for placement in [Placement::LayerClustered, Placement::InsertionOrder] {
            let layout = BlockLayout::new(&idx, placement, 10);
            assert_eq!(layout.blocks(), 34);
            // Every block holds at most block_size tuples.
            let mut counts = vec![0usize; layout.blocks()];
            for t in 0..333u32 {
                counts[layout.block_of(t) as usize] += 1;
            }
            assert!(counts.iter().all(|&c| c <= 10));
            assert_eq!(counts.iter().sum::<usize>(), 333);
        }
    }

    #[test]
    fn full_scan_touches_all_blocks() {
        let rel = WorkloadSpec::new(Distribution::Independent, 2, 100, 1).generate();
        let idx = DualLayerIndex::build(&rel, DlOptions::dl());
        let layout = BlockLayout::new(&idx, Placement::LayerClustered, 7);
        let all: Vec<TupleId> = (0..100).collect();
        assert_eq!(layout.blocks_touched(&all), layout.blocks());
        assert_eq!(layout.blocks_touched(&[]), 0);
    }
}
