//! Compressed sparse row (CSR) matrices and sparse–dense products.
//!
//! CSR matrices appear in three places in the paper's models:
//! the (Laplacian-normalized or raw) adjacency matrix used by every
//! encoder's neighborhood aggregation, the vertex attribute matrix `F`
//! that seeds the Graph Encoder, and the node–attribute bipartite
//! incidence matrix `B` used by the Attribute Encoder. All of them are
//! constants with respect to differentiation, so SpMM only needs a
//! backward rule for its dense operand (`dB = Aᵀ · dY`).

use crate::dense::Dense;
use crate::kernel::{self, Epilogue, Isa, PARALLEL_FLOP_THRESHOLD};

/// A compressed sparse row matrix of `f32`.
///
/// ```
/// use qdgnn_tensor::{Csr, Dense};
///
/// let m = Csr::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, -1.0)]);
/// assert_eq!(m.nnz(), 3);
/// let d = Dense::from_rows(&[&[1.0], &[10.0], &[100.0]]);
/// let out = m.spmm(&d);
/// assert_eq!(out.as_slice(), &[201.0, -10.0]);
/// ```
#[derive(Debug, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl Clone for Csr {
    fn clone(&self) -> Self {
        // Manual impl so the copy's buffers are accounted like any other
        // (see `tracked`).
        Csr::tracked(
            self.rows,
            self.cols,
            self.indptr.clone(),
            self.indices.clone(),
            self.values.clone(),
        )
    }
}

impl Drop for Csr {
    fn drop(&mut self) {
        qdgnn_obs::mem_free(self.heap_bytes());
    }
}

impl Csr {
    /// The sole constructor: accounts all three buffers, then builds the
    /// value. No method reallocates them afterwards (`row_normalize`
    /// mutates in place), so the capacity freed on drop equals the one
    /// counted here.
    #[inline]
    fn tracked(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        let m = Csr { rows, cols, indptr, indices, values };
        qdgnn_obs::mem_alloc(m.heap_bytes());
        m
    }

    /// Bytes of heap this matrix owns across its three buffers.
    #[inline]
    pub fn heap_bytes(&self) -> u64 {
        (self.indptr.capacity() * std::mem::size_of::<usize>()
            + self.indices.capacity() * std::mem::size_of::<u32>()
            + self.values.capacity() * std::mem::size_of::<f32>()) as u64
    }

    /// Builds a CSR matrix from (row, col, value) triplets.
    ///
    /// Duplicate coordinates are summed. Triplets need not be sorted.
    ///
    /// # Panics
    /// Panics if any coordinate is out of range.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        let mut counts = vec![0usize; rows + 1];
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of {rows}x{cols}");
            counts[r + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let mut col_buf = vec![0u32; triplets.len()];
        let mut val_buf = vec![0.0f32; triplets.len()];
        let mut next = counts.clone();
        for &(r, c, v) in triplets {
            let slot = next[r];
            col_buf[slot] = c as u32;
            val_buf[slot] = v;
            next[r] += 1;
        }
        // Sort each row by column and merge duplicates.
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        indptr.push(0);
        let mut scratch: Vec<(u32, f32)> = Vec::new();
        for r in 0..rows {
            scratch.clear();
            scratch.extend(
                col_buf[counts[r]..counts[r + 1]]
                    .iter()
                    .copied()
                    .zip(val_buf[counts[r]..counts[r + 1]].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let (c, mut v) = scratch[i];
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == c {
                    v += scratch[j].1;
                    j += 1;
                }
                indices.push(c);
                values.push(v);
                i = j;
            }
            indptr.push(indices.len());
        }
        Csr::tracked(rows, cols, indptr, indices, values)
    }

    /// A sparse identity matrix.
    pub fn identity(n: usize) -> Self {
        Csr::tracked(n, n, (0..=n).collect(), (0..n as u32).collect(), vec![1.0; n])
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structurally non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Iterator over `(col, value)` pairs of row `r`.
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + Clone + '_ {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        self.indices[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Value at `(r, c)`, or 0 if not stored.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        match self.indices[lo..hi].binary_search(&(c as u32)) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Transposed copy (CSR of the transpose).
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        let mut next = counts;
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                let slot = next[c];
                indices[slot] = r as u32;
                values[slot] = v;
                next[c] += 1;
            }
        }
        Csr::tracked(self.cols, self.rows, indptr, indices, values)
    }

    /// Sparse × dense product `self * d`: [`Csr::spmm_blocked`] over one
    /// block.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn spmm(&self, d: &Dense) -> Dense {
        self.spmm_blocked(d, 1)
    }

    /// Block-diagonal sparse × dense product: applies `self` to each of
    /// `blocks` vertically-stacked row blocks of `d` independently.
    ///
    /// `d` must have `blocks · self.cols()` rows; the result has
    /// `blocks · self.rows()` rows. Cost is `O(blocks · nnz · d.cols())`.
    /// Every output row sums its stored entries' products in column order
    /// through the same row kernel, so block `k` of the output equals
    /// `self.spmm(block k of d)` bit-for-bit and batched serving stays
    /// bit-identical to single queries. Output rows are split across
    /// threads when the work is large enough.
    ///
    /// # Panics
    /// Panics if `blocks` is zero or `d.rows() != blocks · self.cols()`.
    pub fn spmm_blocked(&self, d: &Dense, blocks: usize) -> Dense {
        self.spmm_fused(d, blocks, &Epilogue::default())
    }

    /// [`Csr::spmm_blocked`] followed by `epi` on each output row, while
    /// the row is still in cache: bit-identical to the blocked product
    /// followed by the epilogue's separate elementwise passes. The
    /// epilogue's row index (e.g. into its residual) is the output row.
    ///
    /// # Panics
    /// As [`Csr::spmm_blocked`], or if an epilogue operand does not fit
    /// the output.
    pub fn spmm_fused(&self, d: &Dense, blocks: usize, epi: &Epilogue<'_>) -> Dense {
        self.spmm_fused_on(d, blocks, epi, Isa::detect())
    }

    /// [`Csr::spmm_fused`] compiled for the given instruction set.
    pub(crate) fn spmm_fused_on(
        &self,
        d: &Dense,
        blocks: usize,
        epi: &Epilogue<'_>,
        isa: Isa,
    ) -> Dense {
        assert!(blocks > 0, "spmm: blocks must be positive");
        assert_eq!(
            self.cols * blocks,
            d.rows(),
            "spmm shape mismatch: {}x{} over {} blocks * {}x{}",
            self.rows,
            self.cols,
            blocks,
            d.rows(),
            d.cols()
        );
        let n = d.cols();
        let rows = self.rows * blocks;
        epi.check_shapes(rows, n);
        let mut out = Dense::zeros(rows, n);
        let parallel = self.nnz() * n * blocks >= PARALLEL_FLOP_THRESHOLD;
        kernel::for_unit_chunks(out.as_mut_slice(), n, rows, parallel, |first, chunk| {
            // A chunk of output rows can straddle blocks: run the row
            // kernel once per block it touches.
            let (mut row, mut rest) = (first, chunk);
            while !rest.is_empty() {
                let (block, r) = (row / self.rows, row % self.rows);
                let len = ((self.rows - r) * n).min(rest.len());
                let (part, tail) = std::mem::take(&mut rest).split_at_mut(len);
                let d_row_off = block * self.cols;
                let terms = |i| [self.row_iter(r + i).map(move |(c, v)| (d_row_off + c, v))];
                kernel::weighted_rows(isa, part, n, d.as_slice(), None, terms, epi, row);
                row += len / n;
                rest = tail;
            }
        });
        out
    }

    /// Densifies the matrix (testing / small problems only).
    pub fn to_dense(&self) -> Dense {
        let mut out = Dense::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                out.set(r, c, v);
            }
        }
        out
    }

    /// Row-normalizes the matrix in place so each non-empty row sums to 1.
    pub fn row_normalize(&mut self) {
        for r in 0..self.rows {
            let lo = self.indptr[r];
            let hi = self.indptr[r + 1];
            let s: f32 = self.values[lo..hi].iter().sum();
            // qdgnn-analyze: allow(QD002, reason = "guards division by an exactly-zero row sum (empty row); any nonzero sum, however small, is a valid divisor")
            if s != 0.0 {
                for v in &mut self.values[lo..hi] {
                    *v /= s;
                }
            }
        }
    }
}

/// The plain AXPY loop [`Csr::spmm_blocked`] replaced, kept as the
/// bit-identity oracle for the register-tile kernel.
#[cfg(test)]
pub(crate) fn spmm_blocked_oracle(m: &Csr, d: &Dense, blocks: usize) -> Dense {
    let n = d.cols();
    let mut out = Dense::zeros(m.rows * blocks, n);
    for b in 0..blocks {
        for r in 0..m.rows {
            let out_row = out.row_mut(b * m.rows + r);
            for (c, v) in m.row_iter(r) {
                for (o, &dv) in out_row.iter_mut().zip(d.row(b * m.cols + c)) {
                    *o += v * dv;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        Csr::from_triplets(
            3,
            4,
            &[(0, 1, 2.0), (0, 3, -1.0), (1, 0, 4.0), (2, 2, 1.5), (2, 2, 0.5)],
        )
    }

    #[test]
    fn triplets_sorted_and_merged() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(2, 2), 2.0);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 3), 0.0);
        let row0: Vec<_> = m.row_iter(0).collect();
        assert_eq!(row0, vec![(1, 2.0), (3, -1.0)]);
    }

    #[test]
    fn spmm_matches_dense() {
        let m = sample();
        let d = Dense::from_rows(&[
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[2.0, 3.0],
            &[-1.0, 1.0],
        ]);
        let out = m.spmm(&d);
        let expect = m.to_dense().matmul(&d);
        assert!(out.approx_eq(&expect, 1e-6));
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 3);
        assert!(t.transpose().to_dense().approx_eq(&m.to_dense(), 0.0));
        assert!(t.to_dense().approx_eq(&m.to_dense().transpose(), 0.0));
    }

    #[test]
    fn identity_spmm_is_noop() {
        let d = Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Csr::identity(2);
        assert!(i.spmm(&d).approx_eq(&d, 0.0));
    }

    #[test]
    fn spmm_blocked_matches_per_block_spmm_bitwise() {
        let m = sample();
        let blocks = 3;
        let mut data = Vec::new();
        for b in 0..blocks {
            for i in 0..m.cols() * 2 {
                data.push((b * 7 + i) as f32 * 0.25 - 1.0);
            }
        }
        let d = Dense::from_vec(m.cols() * blocks, 2, data);
        let out = m.spmm_blocked(&d, blocks);
        assert_eq!(out.shape(), (m.rows() * blocks, 2));
        for b in 0..blocks {
            let mut block = Dense::zeros(m.cols(), 2);
            for r in 0..m.cols() {
                for c in 0..2 {
                    block.set(r, c, d.get(b * m.cols() + r, c));
                }
            }
            let expect = m.spmm(&block);
            for r in 0..m.rows() {
                for c in 0..2 {
                    // Bit-identity, not approximate equality.
                    assert_eq!(
                        out.get(b * m.rows() + r, c).to_bits(),
                        expect.get(r, c).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn row_normalize_sums_to_one() {
        let mut m = sample();
        m.row_normalize();
        let s: f32 = m.row_iter(0).map(|(_, v)| v).sum();
        assert!((s - 1.0).abs() < 1e-6);
    }
}
