//! Column-major (SoA) mirror of a [`Relation`](crate::Relation) with a
//! fused scoring kernel.
//!
//! The traversal engine scores tuples in blocks — a seed set or a batch of
//! newly freed nodes per pop — and the row-major `Relation` layout makes
//! that a strided gather per attribute. [`Columns`] transposes the data
//! once at build time so [`Columns::score_block`] can sweep one contiguous
//! column per dimension with an auto-vectorizable inner loop.
//!
//! Bit-identity contract: for every id, `score_block` produces *exactly*
//! the `f64` that [`Weights::score`] produces on the same row — the kernel
//! accumulates per row in the same dimension order (`0.0 + w_0·x_0 +
//! w_1·x_1 + …`), so batching never perturbs score-based orderings.

use crate::weights::Weights;

/// Column-major copy of a set of rows (a relation, optionally followed by
/// extra rows such as pseudo-tuples).
#[derive(Debug, Clone, PartialEq)]
pub struct Columns {
    dims: usize,
    len: usize,
    /// Column j occupies `data[j*len .. (j+1)*len]`.
    data: Vec<f64>,
}

impl Columns {
    /// Transposes a flat row-major buffer. The index builds its scoring
    /// columns this way: one row per node in traversal order, zero-layer
    /// pseudo-tuples included.
    ///
    /// # Panics
    /// Panics if `dims` is zero or `rows.len()` is not a multiple of it.
    pub fn from_flat_rows(dims: usize, rows: &[f64]) -> Self {
        assert!(dims > 0, "dims must be positive");
        assert_eq!(
            rows.len() % dims,
            0,
            "flat buffer length must be a multiple of dims"
        );
        let len = rows.len() / dims;
        let mut data = vec![0.0; rows.len()];
        if len == 0 {
            return Columns { dims, len, data };
        }
        for (j, col) in data.chunks_exact_mut(len).enumerate() {
            for (i, v) in col.iter_mut().enumerate() {
                *v = rows[i * dims + j];
            }
        }
        Columns { dims, len, data }
    }

    /// Number of attributes per row.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrows attribute column `j`.
    ///
    /// # Panics
    /// Panics if `j >= dims`.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.len..(j + 1) * self.len]
    }

    /// Scores rows `ids` under `w` into `out` (resized to `ids.len()`):
    /// `out[p] = F(row ids[p])`, bit-identical to [`Weights::score`] per row.
    ///
    /// Dispatches once per block on `dims`: for d ≤ 8 an unrolled fixed-d
    /// kernel processes ids in 4-wide blocks with an array-of-lanes
    /// accumulator (a shape the compiler reliably vectorizes); higher
    /// dimensionalities fall back to the generic column sweep. Every path
    /// accumulates per row in the same dimension order (`0.0 + w₀x₀ + w₁x₁
    /// + …`), so the result is bitwise independent of the kernel chosen.
    ///
    /// # Panics
    /// Panics if `w`'s dimensionality differs or any id is out of range.
    pub fn score_block(&self, w: &Weights, ids: &[u32], out: &mut Vec<f64>) {
        assert_eq!(w.dims(), self.dims, "weight dimensionality mismatch");
        out.clear();
        out.resize(ids.len(), 0.0);
        match self.dims {
            1 => self.score_block_fixed::<1>(w, ids, out),
            2 => self.score_block_fixed::<2>(w, ids, out),
            3 => self.score_block_fixed::<3>(w, ids, out),
            4 => self.score_block_fixed::<4>(w, ids, out),
            5 => self.score_block_fixed::<5>(w, ids, out),
            6 => self.score_block_fixed::<6>(w, ids, out),
            7 => self.score_block_fixed::<7>(w, ids, out),
            8 => self.score_block_fixed::<8>(w, ids, out),
            _ => self.score_block_generic(w, ids, out),
        }
    }

    /// Fixed-dimensionality kernel: ids are consumed in 4-wide blocks, each
    /// block held in an array-of-lanes accumulator whose per-lane update is
    /// fully unrolled over `D`. Each lane's sum is built in dimension order
    /// starting from `0.0`, matching the scalar fold bit-for-bit (products
    /// are non-negative, so `0.0 + p` is bitwise `p`).
    fn score_block_fixed<const D: usize>(&self, w: &Weights, ids: &[u32], out: &mut [f64]) {
        debug_assert_eq!(self.dims, D);
        let mut ws = [0.0f64; D];
        ws.copy_from_slice(w.as_slice());
        let len = self.len;
        let data = &self.data[..];
        let mut id_blocks = ids.chunks_exact(4);
        let mut out_blocks = out.chunks_exact_mut(4);
        for (idb, ob) in (&mut id_blocks).zip(&mut out_blocks) {
            let rows = [
                idb[0] as usize,
                idb[1] as usize,
                idb[2] as usize,
                idb[3] as usize,
            ];
            let mut acc = [0.0f64; 4];
            for j in 0..D {
                let col = &data[j * len..(j + 1) * len];
                for l in 0..4 {
                    acc[l] += ws[j] * col[rows[l]];
                }
            }
            ob.copy_from_slice(&acc);
        }
        for (&id, o) in id_blocks
            .remainder()
            .iter()
            .zip(out_blocks.into_remainder())
        {
            let row = id as usize;
            let mut acc = 0.0f64;
            for (j, &wj) in ws.iter().enumerate() {
                acc += wj * data[j * len + row];
            }
            *o = acc;
        }
    }

    /// Generic column sweep for dimensionalities above the unrolled range:
    /// the first dimension initializes the accumulators, each further
    /// dimension does a fused gather-multiply-add over one contiguous
    /// column.
    fn score_block_generic(&self, w: &Weights, ids: &[u32], out: &mut [f64]) {
        for (j, &wj) in w.as_slice().iter().enumerate() {
            let col = self.col(j);
            if j == 0 {
                for (o, &id) in out.iter_mut().zip(ids) {
                    // Matches the scalar iterator-sum fold, which starts
                    // at 0.0: products here are non-negative, so 0.0 + p
                    // is bitwise p.
                    *o = wj * col[id as usize];
                }
            } else {
                for (o, &id) in out.iter_mut().zip(ids) {
                    *o += wj * col[id as usize];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_relation(rng: &mut StdRng, d: usize, n: usize) -> Relation {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0f64)).collect())
            .collect();
        Relation::from_rows(d, &rows).unwrap()
    }

    #[test]
    fn transpose_roundtrip() {
        let rel =
            Relation::from_rows(2, &[vec![0.1, 0.2], vec![0.3, 0.4], vec![0.5, 0.6]]).unwrap();
        let cols = Columns::from_flat_rows(rel.dims(), rel.flat());
        assert_eq!((cols.dims(), cols.len()), (2, 3));
        assert_eq!(cols.col(0), &[0.1, 0.3, 0.5]);
        assert_eq!(cols.col(1), &[0.2, 0.4, 0.6]);
    }

    #[test]
    fn kernel_matches_scalar_bit_for_bit() {
        // The satellite contract: score_block == Weights::score to the last
        // bit, across every unrolled dispatch arm (d = 1..=8) plus the
        // generic fallback (d = 9, 10), and across block lengths that do
        // and do not divide the 4-wide lane width.
        let mut rng = StdRng::seed_from_u64(0xC0);
        for d in 1..=10 {
            for n in [61usize, 64] {
                let rel = random_relation(&mut rng, d, n);
                let cols = Columns::from_flat_rows(rel.dims(), rel.flat());
                let w = Weights::random(d, &mut rng);
                let ids: Vec<u32> = (0..rel.len() as u32).collect();
                let mut out = Vec::new();
                cols.score_block(&w, &ids, &mut out);
                for (&id, &got) in ids.iter().zip(&out) {
                    let want = w.score(rel.tuple(id));
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "d={d} n={n} id={id}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn fixed_and_generic_kernels_agree_bitwise() {
        // The unrolled kernels must be a pure reordering of *loads*, never
        // of per-row accumulation: force both paths over the same data.
        let mut rng = StdRng::seed_from_u64(0xC3);
        for d in 1..=8 {
            let rel = random_relation(&mut rng, d, 37);
            let cols = Columns::from_flat_rows(rel.dims(), rel.flat());
            let w = Weights::random(d, &mut rng);
            let ids: Vec<u32> = (0..rel.len() as u32).rev().collect();
            let mut fixed = vec![0.0; ids.len()];
            let mut generic = vec![0.0; ids.len()];
            match d {
                1 => cols.score_block_fixed::<1>(&w, &ids, &mut fixed),
                2 => cols.score_block_fixed::<2>(&w, &ids, &mut fixed),
                3 => cols.score_block_fixed::<3>(&w, &ids, &mut fixed),
                4 => cols.score_block_fixed::<4>(&w, &ids, &mut fixed),
                5 => cols.score_block_fixed::<5>(&w, &ids, &mut fixed),
                6 => cols.score_block_fixed::<6>(&w, &ids, &mut fixed),
                7 => cols.score_block_fixed::<7>(&w, &ids, &mut fixed),
                8 => cols.score_block_fixed::<8>(&w, &ids, &mut fixed),
                _ => unreachable!(),
            }
            cols.score_block_generic(&w, &ids, &mut generic);
            for (a, b) in fixed.iter().zip(&generic) {
                assert_eq!(a.to_bits(), b.to_bits(), "d={d}");
            }
        }
    }

    #[test]
    fn kernel_handles_duplicate_and_unordered_ids() {
        let mut rng = StdRng::seed_from_u64(0xC1);
        let rel = random_relation(&mut rng, 3, 32);
        let cols = Columns::from_flat_rows(rel.dims(), rel.flat());
        let w = Weights::random(3, &mut rng);
        let ids = [7u32, 7, 0, 31, 7, 2, 2];
        let mut out = Vec::new();
        cols.score_block(&w, &ids, &mut out);
        assert_eq!(out.len(), ids.len());
        for (&id, &got) in ids.iter().zip(&out) {
            assert_eq!(got.to_bits(), w.score(rel.tuple(id)).to_bits());
        }
    }

    #[test]
    fn extra_rows_are_addressable_past_n() {
        // The index's layout: the relation's rows, then two pseudo rows.
        let rel = Relation::from_rows(2, &[vec![0.1, 0.9], vec![0.5, 0.5]]).unwrap();
        let mut rows = rel.flat().to_vec();
        rows.extend_from_slice(&[0.2, 0.3, 0.8, 0.7]);
        let cols = Columns::from_flat_rows(2, &rows);
        assert_eq!(cols.len(), 4);
        let w = Weights::new(vec![0.25, 0.75]).unwrap();
        let mut out = Vec::new();
        cols.score_block(&w, &[2, 3], &mut out);
        assert_eq!(out[0].to_bits(), w.score(&[0.2, 0.3]).to_bits());
        assert_eq!(out[1].to_bits(), w.score(&[0.8, 0.7]).to_bits());
    }

    #[test]
    fn empty_block_and_empty_columns() {
        let cols = Columns::from_flat_rows(3, &[]);
        assert!(cols.is_empty());
        let w = Weights::uniform(3);
        let mut out = vec![1.0; 5];
        cols.score_block(&w, &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn reuses_output_capacity() {
        let mut rng = StdRng::seed_from_u64(0xC2);
        let rel = random_relation(&mut rng, 2, 16);
        let cols = Columns::from_flat_rows(rel.dims(), rel.flat());
        let w = Weights::uniform(2);
        let mut out = Vec::new();
        cols.score_block(&w, &[0, 1, 2, 3], &mut out);
        let cap = out.capacity();
        cols.score_block(&w, &[4, 5], &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.capacity() >= cap.min(4));
    }
}
