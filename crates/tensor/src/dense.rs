//! Row-major dense f32 matrices and their kernels.
//!
//! The kernels are written for the shapes that dominate GNN inference and
//! training: tall-skinny activations (`n × 32`…`n × 96`) multiplied by
//! small weight matrices, down to the 1-wide output head. The matmul
//! accumulates each output row in register tiles (see the `kernel` module),
//! branch-free; large products are additionally split across threads.

use std::fmt;

use crate::kernel::{self, Epilogue, Isa, PARALLEL_FLOP_THRESHOLD};

/// A row-major dense matrix of `f32`.
///
/// Cloning is a deep copy; the autodiff tape wraps values in `Arc` so that
/// clones on the hot path are reference-counted instead.
///
/// Every buffer is accounted to the obs memory registry on construction
/// and on drop (zero-cost no-ops unless `qdgnn-obs/enabled` is on), so
/// `mem.live_bytes` / `mem.peak_bytes` track tensor heap usage exactly.
#[derive(PartialEq)]
pub struct Dense {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Dense {
    fn clone(&self) -> Self {
        // Manual impl so the copy's buffer is accounted like any other.
        Dense::tracked(self.rows, self.cols, self.data.clone())
    }
}

impl Drop for Dense {
    fn drop(&mut self) {
        qdgnn_obs::mem_free(self.heap_bytes());
    }
}

impl Dense {
    /// The sole constructor: accounts the buffer, then builds the value.
    /// Buffers never grow after construction (no method reallocates
    /// `data`), so the capacity freed on drop equals the one counted here.
    #[inline]
    fn tracked(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        let m = Dense { rows, cols, data };
        qdgnn_obs::mem_alloc(m.heap_bytes());
        m
    }

    /// Bytes of heap this matrix owns (its buffer's capacity).
    #[inline]
    pub fn heap_bytes(&self) -> u64 {
        (self.data.capacity() * std::mem::size_of::<f32>()) as u64
    }

    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Dense::tracked(rows, cols, vec![0.0; rows * cols])
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Dense::tracked(rows, cols, vec![value; rows * cols])
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Dense::tracked(rows, cols, data)
    }

    /// Creates a matrix from nested row slices (test/builder convenience).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Dense::tracked(r, c, data)
    }

    /// Creates a 1×`n` row vector.
    pub fn row_vector(values: &[f32]) -> Self {
        Dense::tracked(1, values.len(), values.to_vec())
    }

    /// Creates an `n`×1 column vector.
    pub fn column_vector(values: &[f32]) -> Self {
        Dense::tracked(values.len(), 1, values.to_vec())
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Dense::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        crate::sanitize_assert!(
            r < self.rows && c < self.cols,
            "Dense::get out of bounds: [{r},{c}] in a {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        crate::sanitize_assert!(
            r < self.rows && c < self.cols,
            "Dense::set out of bounds: [{r},{c}] in a {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Consumes the matrix, returning its row-major data.
    ///
    /// The buffer leaves memory accounting here: it is counted as freed
    /// even though the returned `Vec` keeps it alive (only tensor-owned
    /// buffers are tracked).
    pub fn into_vec(mut self) -> Vec<f32> {
        let data = std::mem::take(&mut self.data);
        // `self` now holds a zero-capacity buffer; its Drop frees 0 bytes,
        // so release the real buffer's bytes explicitly.
        qdgnn_obs::mem_free((data.capacity() * std::mem::size_of::<f32>()) as u64);
        data
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Dense {
        let mut out = Dense::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// `self * other` (dense × dense): [`Dense::matmul_fused`] with no
    /// prefix and no epilogue.
    ///
    /// Bit-identical to the zero-skipping `i-k-j` AXPY loop: each output
    /// element sums `a[i][k] · b[k][j]` in `k` order from `+0.0`, without
    /// FMA. That accumulator can never be `-0.0` under round-to-nearest,
    /// so for a finite `other` adding a `0 · b` term changes nothing and
    /// the kernel needs no zero test. When `other` holds `inf` or `NaN`
    /// (where `0 · inf` would be `NaN`) the kernel skips zero terms.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Dense) -> Dense {
        Dense::matmul_fused(None, &[self], other, &Epilogue::default())
    }

    /// The product of the horizontal concatenation `[g | parts…]` with
    /// `w`, without materialising the concatenation, then `epi` on each
    /// output row.
    ///
    /// `g`'s share is passed in as `prefix = g · w[..p]`, the product of
    /// the first `p = w.rows() − Σ part widths` weight rows, computed
    /// once (it may hold one block of rows that every `prefix.rows()`-row
    /// block of the output repeats). Each output row's accumulator starts
    /// from its prefix row and continues over the parts' terms, in the
    /// order the full product would add them, so the result is
    /// bit-identical to `concat(g, parts…).matmul(w)` followed by the
    /// epilogue's separate passes. With `prefix = None` the parts must
    /// cover every weight row, and one part is a plain matmul.
    ///
    /// # Panics
    /// Panics if `parts` is empty or its heights differ, on a weight
    /// height mismatch, or if the prefix does not tile the output.
    pub fn matmul_fused(
        prefix: Option<&Dense>,
        parts: &[&Dense],
        w: &Dense,
        epi: &Epilogue<'_>,
    ) -> Dense {
        Dense::matmul_fused_on(prefix, parts, w, epi, Isa::detect())
    }

    /// [`Dense::matmul_fused`] compiled for the given instruction set.
    pub(crate) fn matmul_fused_on(
        prefix: Option<&Dense>,
        parts: &[&Dense],
        w: &Dense,
        epi: &Epilogue<'_>,
        isa: Isa,
    ) -> Dense {
        assert!(!parts.is_empty(), "matmul needs a left operand");
        let rows = parts[0].rows;
        let inner: usize = parts.iter().map(|p| p.cols).sum();
        let covered = if prefix.is_some() { w.rows.checked_sub(inner) } else { Some(0) };
        let Some(covered) = covered.filter(|c| c + inner == w.rows) else {
            panic!("matmul shape mismatch: {rows}x{inner} * {}x{}", w.rows, w.cols)
        };
        assert!(parts.iter().all(|p| p.rows == rows), "matmul parts differ in height");
        let n = w.cols;
        epi.check_shapes(rows, n);
        let period = match prefix {
            Some(p) => {
                assert!(
                    p.cols == n && p.rows > 0 && rows.is_multiple_of(p.rows),
                    "matmul prefix {}x{} does not tile a {rows}x{n} output",
                    p.rows,
                    p.cols
                );
                p.rows
            }
            None => rows.max(1),
        };
        // Each part's first weight row.
        let mut segs = Vec::with_capacity(parts.len());
        let mut off = covered;
        for p in parts {
            segs.push((&p.data[..], p.cols, off));
            off += p.cols;
        }
        let mut out = Dense::zeros(rows, n);
        let prefix = prefix.map(|p| &p.data[..]);
        let ctx = FusedRows { n, w, prefix, period, epi, isa };
        let parallel = rows * inner * n >= PARALLEL_FLOP_THRESHOLD;
        // One term run per part: a plain product, `[g | q]` or `[g | q | n]`.
        match segs[..] {
            [a] => ctx.run(&mut out, parallel, |i| [seg_terms(a, i)]),
            [a, b] => ctx.run(&mut out, parallel, |i| [seg_terms(a, i), seg_terms(b, i)]),
            _ => ctx.run(&mut out, parallel, |i| [segs.iter().flat_map(move |&s| seg_terms(s, i))]),
        }
        out
    }

    /// `selfᵀ * other` without materializing the transpose.
    ///
    /// Used by backward passes (`dW = Xᵀ · dY`).
    pub fn transpose_matmul(&self, other: &Dense) -> Dense {
        assert_eq!(
            self.rows, other.rows,
            "transpose_matmul shape mismatch: {}x{}^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Dense::zeros(self.cols, other.cols);
        // out[i][j] = sum_k self[k][i] * other[k][j]
        for k in 0..self.rows {
            let a_row = self.row(k);
            let b_row = other.row(k);
            for (i, &a) in a_row.iter().enumerate() {
                // qdgnn-analyze: allow(QD002, reason = "exact-zero sparsity skip: one-hot query inputs make most entries bit-exact 0.0; skipping them is an optimization, not a semantic branch")
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * b_row.len()..(i + 1) * b_row.len()];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self * otherᵀ` without materializing the transpose.
    ///
    /// Used by backward passes (`dX = dY · Wᵀ`).
    pub fn matmul_transpose(&self, other: &Dense) -> Dense {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose shape mismatch: {}x{} * {}x{}^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Dense::zeros(self.rows, other.rows);
        for r in 0..self.rows {
            let a_row = self.row(r);
            let out_row = out.row_mut(r);
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = other.row(j);
                let mut acc = 0.0f32;
                for (a, b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
        out
    }

    /// Elementwise `self += other`.
    pub fn add_assign(&mut self, other: &Dense) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Elementwise `self += scale * other` (AXPY).
    pub fn add_scaled_assign(&mut self, other: &Dense, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Elementwise sum, returning a new matrix.
    pub fn add(&self, other: &Dense) -> Dense {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// Elementwise difference, returning a new matrix.
    pub fn sub(&self, other: &Dense) -> Dense {
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Dense::tracked(self.rows, self.cols, data)
    }

    /// Elementwise (Hadamard) product, returning a new matrix.
    pub fn hadamard(&self, other: &Dense) -> Dense {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a * b).collect();
        Dense::tracked(self.rows, self.cols, data)
    }

    /// Multiplies every element by `k` in place.
    pub fn scale_assign(&mut self, k: f32) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Returns `k * self`.
    pub fn scaled(&self, k: f32) -> Dense {
        let mut out = self.clone();
        out.scale_assign(k);
        out
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Dense {
        let data = self.data.iter().map(|&v| f(v)).collect();
        Dense::tracked(self.rows, self.cols, data)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Column sums as a 1×cols row vector.
    pub fn col_sums(&self) -> Dense {
        let mut out = Dense::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Column means as a 1×cols row vector.
    pub fn col_means(&self) -> Dense {
        let mut out = self.col_sums();
        if self.rows > 0 {
            out.scale_assign(1.0 / self.rows as f32);
        }
        out
    }

    /// Horizontal concatenation of matrices with equal row counts.
    ///
    /// # Panics
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(parts: &[&Dense]) -> Dense {
        assert!(!parts.is_empty(), "concat_cols of zero matrices");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Dense::zeros(rows, cols);
        for r in 0..rows {
            let out_row = out.row_mut(r);
            let mut offset = 0;
            for p in parts {
                assert_eq!(p.rows, rows, "concat_cols row mismatch");
                out_row[offset..offset + p.cols].copy_from_slice(p.row(r));
                offset += p.cols;
            }
        }
        out
    }

    /// Extracts the column range `[start, start + width)` into a new matrix.
    pub fn slice_cols(&self, start: usize, width: usize) -> Dense {
        assert!(start + width <= self.cols, "slice_cols out of range");
        let mut out = Dense::zeros(self.rows, width);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..start + width]);
        }
        out
    }

    /// Gathers the given rows into a new matrix (`out[i] = self[rows[i]]`).
    pub fn gather_rows(&self, rows: &[usize]) -> Dense {
        let mut out = Dense::zeros(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            assert!(r < self.rows, "gather_rows index {r} out of range");
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Maximum absolute element (0 for empty).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Squared Frobenius norm.
    pub fn frob_sq(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// `true` if all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Approximate equality within `tol`, elementwise (shapes must match).
    pub fn approx_eq(&self, other: &Dense, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

/// One part of a fused product's left operand: its row-major data, its
/// width, and the weight row its first column multiplies.
type Seg<'a> = (&'a [f32], usize, usize);

/// Row `i`'s terms of one part.
#[inline(always)]
fn seg_terms(
    (data, cols, off): Seg<'_>,
    i: usize,
) -> impl Iterator<Item = (usize, f32)> + Clone + '_ {
    data[i * cols..][..cols].iter().enumerate().map(move |(k, &v)| (off + k, v))
}

/// The shared state of one [`Dense::matmul_fused`] call.
struct FusedRows<'a> {
    n: usize,
    w: &'a Dense,
    prefix: Option<&'a [f32]>,
    period: usize,
    epi: &'a Epilogue<'a>,
    isa: Isa,
}

impl FusedRows<'_> {
    /// Fills `out` from `terms(i)` per output row, threaded when
    /// `parallel`.
    fn run<F, I, const P: usize>(&self, out: &mut Dense, parallel: bool, terms: F)
    where
        F: Fn(usize) -> [I; P] + Sync,
        I: Iterator<Item = (usize, f32)> + Clone,
    {
        let (n, rows, finite) = (self.n, out.rows, self.w.is_finite());
        kernel::for_unit_chunks(out.as_mut_slice(), n, rows, parallel, |first, chunk| {
            // Walk the chunk one prefix period at a time, so each row
            // finds its prefix row without a division.
            let (mut row, mut rest) = (first, chunk);
            while !rest.is_empty() {
                let r = row % self.period;
                let len = ((self.period - r) * n).min(rest.len());
                let (part, tail) = std::mem::take(&mut rest).split_at_mut(len);
                let prefix = self.prefix.map(|p| &p[r * n..]);
                let (isa, w, base, epi) = (self.isa, &self.w.data, row, self.epi);
                if finite {
                    kernel::weighted_rows(isa, part, n, w, prefix, |i| terms(base + i), epi, base);
                } else {
                    // 0 · inf is NaN: skip zero terms, as the AXPY loop does.
                    let nonzero = |i| {
                        // qdgnn-analyze: allow(QD002, reason = "exact-zero sparsity skip: multiplying by bit-exact 0.0 contributes nothing unless w is non-finite, which is the only case this path serves")
                        terms(base + i).map(|run| run.filter(|&(_, v)| v != 0.0))
                    };
                    kernel::weighted_rows(isa, part, n, w, prefix, nonzero, epi, base);
                }
                row += len / n;
                rest = tail;
            }
        });
    }
}

impl fmt::Debug for Dense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Dense {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for r in 0..max_rows {
            write!(f, "  [")?;
            let max_cols = 8.min(self.cols);
            for c in 0..max_cols {
                write!(f, "{:9.4}", self.get(r, c))?;
                if c + 1 < max_cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > max_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

/// The zero-skipping `i-k-j` AXPY: fills `out` (whole rows) with rows
/// `row_start..` of `a * b`. The oracle the register-tile kernel is
/// tested against.
#[cfg(test)]
pub(crate) fn matmul_rows_skipping(a: &Dense, b: &Dense, out: &mut [f32], row_start: usize) {
    let n = b.cols;
    if n == 0 {
        return;
    }
    for (i, out_row) in out.chunks_exact_mut(n).enumerate() {
        for (k, &av) in a.row(row_start + i).iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in out_row.iter_mut().zip(b.row(k)) {
                *o += av * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_manual() {
        let a = Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Dense::from_rows(&[&[7.0, 8.0, 9.0], &[10.0, 11.0, 12.0]]);
        let c = a.matmul(&b);
        let expect = Dense::from_rows(&[
            &[27.0, 30.0, 33.0],
            &[61.0, 68.0, 75.0],
            &[95.0, 106.0, 117.0],
        ]);
        assert!(c.approx_eq(&expect, 1e-6));
    }

    #[test]
    fn transpose_products_match_explicit_transpose() {
        let a = Dense::from_rows(&[&[1.0, -2.0, 0.5], &[3.0, 4.0, -1.0]]);
        let b = Dense::from_rows(&[&[2.0, 1.0], &[0.0, -1.0]]);
        let atb = a.transpose_matmul(&b);
        assert!(atb.approx_eq(&a.transpose().matmul(&b), 1e-6));

        let c = Dense::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let act = a.matmul_transpose(&c);
        assert!(act.approx_eq(&a.matmul(&c.transpose()), 1e-6));
    }

    #[test]
    fn parallel_matmul_matches_serial() {
        // Shapes chosen to exceed PARALLEL_FLOP_THRESHOLD.
        let n = 260;
        let mut a = Dense::zeros(n, n);
        let mut b = Dense::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a.set(i, j, ((i * 31 + j * 7) % 13) as f32 - 6.0);
                b.set(i, j, ((i * 17 + j * 3) % 11) as f32 - 5.0);
            }
        }
        let fast = a.matmul(&b);
        let mut slow = Dense::zeros(n, n);
        matmul_rows_skipping(&a, &b, slow.as_mut_slice(), 0);
        assert_eq!(fast, slow);
    }

    #[test]
    fn concat_and_slice_round_trip() {
        let a = Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Dense::from_rows(&[&[5.0], &[6.0]]);
        let cat = Dense::concat_cols(&[&a, &b]);
        assert_eq!(cat.shape(), (2, 3));
        assert!(cat.slice_cols(0, 2).approx_eq(&a, 0.0));
        assert!(cat.slice_cols(2, 1).approx_eq(&b, 0.0));
    }

    #[test]
    fn col_reductions() {
        let a = Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!(a.col_sums().approx_eq(&Dense::row_vector(&[4.0, 6.0]), 1e-6));
        assert!(a.col_means().approx_eq(&Dense::row_vector(&[2.0, 3.0]), 1e-6));
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
    }

    #[test]
    fn gather_rows_selects() {
        let a = Dense::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let g = a.gather_rows(&[2, 0]);
        assert!(g.approx_eq(&Dense::from_rows(&[&[3.0], &[1.0]]), 0.0));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Dense::zeros(2, 3);
        let b = Dense::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
