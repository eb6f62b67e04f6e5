//! Reverse-mode automatic differentiation over [`Dense`] matrices.
//!
//! A [`Tape`] records every operation of a forward pass as a node holding
//! the operation's output value (behind an `Arc`, so leaves alias the
//! caller's storage at zero copy cost) and an [`Op`] describing how to
//! route gradients to its parents. [`Tape::backward`] then replays the
//! nodes in reverse topological order — which is simply reverse insertion
//! order, since parents are always created before children.
//!
//! The operator set is deliberately small but complete for the paper's
//! models: sparse and dense products, elementwise arithmetic, row
//! broadcasts (bias / batch-norm affine), column means (batch-norm
//! statistics), ReLU/Sigmoid, column concatenation (Feature Fusion), and
//! a fused numerically-stable BCE-with-logits loss.

use std::sync::Arc;

use crate::dense::Dense;
use crate::ops;
use crate::sparse::Csr;

/// Handle to a value recorded on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

impl Var {
    /// The tape-local index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// The recorded operation of a tape node.
enum Op {
    /// Input with no parents (parameter or constant).
    Leaf,
    /// Dense product `a · b`.
    Matmul { a: usize, b: usize },
    /// Sparse–dense product `m · b` with constant `m`; `mt` is the
    /// precomputed transpose used by the backward pass.
    Spmm { mt: Arc<Csr>, b: usize },
    /// Elementwise `a + b`.
    Add { a: usize, b: usize },
    /// Elementwise `a − b`.
    Sub { a: usize, b: usize },
    /// Elementwise `a ∘ b`.
    Hadamard { a: usize, b: usize },
    /// Row-broadcast `a + r` with `r` a 1×c vector (bias add).
    AddRow { a: usize, r: usize },
    /// Row-broadcast `a ∘ r` with `r` a 1×c vector (batch-norm scale).
    MulRow { a: usize, r: usize },
    /// Column-broadcast `a ∘ c` with `c` an n×1 vector (attention gates).
    MulCol { a: usize, c: usize },
    /// Column means, n×c → 1×c.
    ColMean { a: usize },
    /// Elementwise `max(x, 0)`.
    Relu { a: usize },
    /// Elementwise logistic sigmoid.
    Sigmoid { a: usize },
    /// Elementwise `k · x`.
    Scale { a: usize, k: f32 },
    /// Elementwise `x + k`.
    AddScalar { a: usize },
    /// Elementwise `x^(−1/2)`; input must be positive.
    Rsqrt { a: usize },
    /// Horizontal concatenation of same-height matrices.
    ConcatCols { parts: Vec<usize> },
    /// Mean over all elements, producing a 1×1 scalar.
    MeanAll { a: usize },
    /// Fused mean binary cross-entropy with logits against a constant
    /// target (and optional constant per-element weights).
    BceWithLogitsMean { a: usize, target: Arc<Dense>, weights: Option<Arc<Dense>> },
}

impl Op {
    /// The op's name, used by the finiteness sanitizer so NaN/Inf
    /// reports name their producer.
    #[cfg_attr(
        not(feature = "sanitize"),
        allow(dead_code, reason = "only the finiteness sanitizer names ops")
    )]
    fn name(&self) -> &'static str {
        match self {
            Op::Leaf => "leaf",
            Op::Matmul { .. } => "matmul",
            Op::Spmm { .. } => "spmm",
            Op::Add { .. } => "add",
            Op::Sub { .. } => "sub",
            Op::Hadamard { .. } => "hadamard",
            Op::AddRow { .. } => "add_row",
            Op::MulRow { .. } => "mul_row",
            Op::MulCol { .. } => "mul_col",
            Op::ColMean { .. } => "col_mean",
            Op::Relu { .. } => "relu",
            Op::Sigmoid { .. } => "sigmoid",
            Op::Scale { .. } => "scale",
            Op::AddScalar { .. } => "add_scalar",
            Op::Rsqrt { .. } => "rsqrt",
            Op::ConcatCols { .. } => "concat_cols",
            Op::MeanAll { .. } => "mean_all",
            Op::BceWithLogitsMean { .. } => "bce_with_logits_mean",
        }
    }

    /// Obs counter accumulating output bytes per op kind (static names:
    /// this runs on every tape push, a `format!` would allocate).
    fn bytes_metric(&self) -> &'static str {
        match self {
            Op::Leaf => "tensor.leaf.bytes",
            Op::Matmul { .. } => "tensor.matmul.bytes",
            Op::Spmm { .. } => "tensor.spmm.bytes",
            Op::Add { .. } => "tensor.add.bytes",
            Op::Sub { .. } => "tensor.sub.bytes",
            Op::Hadamard { .. } => "tensor.hadamard.bytes",
            Op::AddRow { .. } => "tensor.add_row.bytes",
            Op::MulRow { .. } => "tensor.mul_row.bytes",
            Op::MulCol { .. } => "tensor.mul_col.bytes",
            Op::ColMean { .. } => "tensor.col_mean.bytes",
            Op::Relu { .. } => "tensor.relu.bytes",
            Op::Sigmoid { .. } => "tensor.sigmoid.bytes",
            Op::Scale { .. } => "tensor.scale.bytes",
            Op::AddScalar { .. } => "tensor.add_scalar.bytes",
            Op::Rsqrt { .. } => "tensor.rsqrt.bytes",
            Op::ConcatCols { .. } => "tensor.concat_cols.bytes",
            Op::MeanAll { .. } => "tensor.mean_all.bytes",
            Op::BceWithLogitsMean { .. } => "tensor.bce_with_logits.bytes",
        }
    }
}

struct Node {
    value: Arc<Dense>,
    op: Op,
}

/// Gradients produced by [`Tape::backward`].
///
/// Indexed by [`Var`]; variables the loss does not depend on have no entry.
pub struct Gradients {
    grads: Vec<Option<Dense>>,
}

impl Gradients {
    /// Gradient of the loss with respect to `var`, if it participated.
    pub fn get(&self, var: Var) -> Option<&Dense> {
        self.grads.get(var.index()).and_then(|g| g.as_ref())
    }

    /// Removes and returns the gradient for `var`.
    pub fn take(&mut self, var: Var) -> Option<Dense> {
        self.grads.get_mut(var.index()).and_then(|g| g.take())
    }
}

/// A gradient tape: records a forward computation and differentiates it.
///
/// ```
/// use std::sync::Arc;
/// use qdgnn_tensor::{Dense, Tape};
///
/// // loss = mean(relu(x · w))
/// let mut tape = Tape::new();
/// let x = tape.constant(Dense::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]));
/// let w = tape.leaf(Arc::new(Dense::from_rows(&[&[0.5], &[1.0]])));
/// let h = tape.matmul(x, w);
/// let r = tape.relu(h);
/// let loss = tape.mean_all(r);
/// let grads = tape.backward(loss);
/// assert_eq!(grads.get(w).unwrap().shape(), (2, 1));
/// ```
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape { nodes: Vec::new() }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Dense, op: Op) -> Var {
        self.push_arc(Arc::new(value), op)
    }

    fn push_arc(&mut self, value: Arc<Dense>, op: Op) -> Var {
        #[cfg(feature = "sanitize")]
        if !matches!(op, Op::Leaf) {
            crate::sanitize::check_finite(op.name(), &value);
        }
        if qdgnn_obs::enabled() {
            // Output bytes per op kind (for leaves: bytes the tape retains
            // by aliasing the caller's storage, not a fresh allocation —
            // the global alloc/live accounting lives in `Dense` itself).
            qdgnn_obs::counter(op.bytes_metric()).inc_by(value.heap_bytes());
        }
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// Records a differentiable leaf sharing the caller's storage.
    pub fn leaf(&mut self, value: Arc<Dense>) -> Var {
        self.push_arc(value, Op::Leaf)
    }

    /// Records a constant leaf (identical to [`Tape::leaf`]; gradients for
    /// constants are simply never read back).
    pub fn constant(&mut self, value: Dense) -> Var {
        self.push(value, Op::Leaf)
    }

    /// The forward value of `var`.
    pub fn value(&self, var: Var) -> &Arc<Dense> {
        &self.nodes[var.index()].value
    }

    /// Shape of `var`'s value.
    pub fn shape(&self, var: Var) -> (usize, usize) {
        self.nodes[var.index()].value.shape()
    }

    /// Dense product `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let _t = qdgnn_obs::op_timer("tensor.matmul");
        let v = self.val(a).matmul(self.val(b));
        self.push(v, Op::Matmul { a: a.0, b: b.0 })
    }

    /// Sparse–dense product `m · b`; `m` is constant w.r.t. differentiation.
    ///
    /// `mt` must be the transpose of `m` (precompute once per graph with
    /// [`Csr::transpose`] and reuse across queries/epochs).
    pub fn spmm(&mut self, m: &Arc<Csr>, mt: &Arc<Csr>, b: Var) -> Var {
        let _t = qdgnn_obs::op_timer("tensor.spmm");
        crate::sanitize_assert!(
            m.rows() == mt.cols() && m.cols() == mt.rows(),
            "spmm: mt ({}x{}) is not the transpose of m ({}x{})",
            mt.rows(),
            mt.cols(),
            m.rows(),
            m.cols()
        );
        let v = m.spmm(self.val(b));
        self.push(v, Op::Spmm { mt: Arc::clone(mt), b: b.0 })
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let _t = qdgnn_obs::op_timer("tensor.add");
        let v = self.val(a).add(self.val(b));
        self.push(v, Op::Add { a: a.0, b: b.0 })
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let _t = qdgnn_obs::op_timer("tensor.sub");
        let v = self.val(a).sub(self.val(b));
        self.push(v, Op::Sub { a: a.0, b: b.0 })
    }

    /// Elementwise product.
    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        let _t = qdgnn_obs::op_timer("tensor.hadamard");
        let v = self.val(a).hadamard(self.val(b));
        self.push(v, Op::Hadamard { a: a.0, b: b.0 })
    }

    /// Adds row vector `r` (1×c) to every row of `a` (bias add).
    pub fn add_row(&mut self, a: Var, r: Var) -> Var {
        let _t = qdgnn_obs::op_timer("tensor.add_row");
        let v = ops::add_row_broadcast(self.val(a), self.val(r));
        self.push(v, Op::AddRow { a: a.0, r: r.0 })
    }

    /// Multiplies every row of `a` by row vector `r` (1×c).
    pub fn mul_row(&mut self, a: Var, r: Var) -> Var {
        let _t = qdgnn_obs::op_timer("tensor.mul_row");
        let v = ops::mul_row_broadcast(self.val(a), self.val(r));
        self.push(v, Op::MulRow { a: a.0, r: r.0 })
    }

    /// Multiplies row `i` of `a` by the scalar `c[i]` (`c` is n×1) —
    /// per-vertex gating for attention fusion.
    pub fn mul_col(&mut self, a: Var, c: Var) -> Var {
        let _t = qdgnn_obs::op_timer("tensor.mul_col");
        let v = ops::mul_col_broadcast(self.val(a), self.val(c));
        self.push(v, Op::MulCol { a: a.0, c: c.0 })
    }

    /// Column means (n×c → 1×c).
    pub fn col_mean(&mut self, a: Var) -> Var {
        let _t = qdgnn_obs::op_timer("tensor.col_mean");
        let v = self.val(a).col_means();
        self.push(v, Op::ColMean { a: a.0 })
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let _t = qdgnn_obs::op_timer("tensor.relu");
        let v = self.val(a).map(|x| x.max(0.0));
        self.push(v, Op::Relu { a: a.0 })
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let _t = qdgnn_obs::op_timer("tensor.sigmoid");
        let v = self.val(a).map(ops::sigmoid);
        self.push(v, Op::Sigmoid { a: a.0 })
    }

    /// Elementwise scaling by constant `k`.
    pub fn scale(&mut self, a: Var, k: f32) -> Var {
        let _t = qdgnn_obs::op_timer("tensor.scale");
        let v = self.val(a).scaled(k);
        self.push(v, Op::Scale { a: a.0, k })
    }

    /// Elementwise addition of constant `k`.
    pub fn add_scalar(&mut self, a: Var, k: f32) -> Var {
        let _t = qdgnn_obs::op_timer("tensor.add_scalar");
        let v = self.val(a).map(|x| x + k);
        self.push(v, Op::AddScalar { a: a.0 })
    }

    /// Elementwise reciprocal square root (inputs must be positive).
    pub fn rsqrt(&mut self, a: Var) -> Var {
        let _t = qdgnn_obs::op_timer("tensor.rsqrt");
        let v = self.val(a).map(|x| 1.0 / x.sqrt());
        self.push(v, Op::Rsqrt { a: a.0 })
    }

    /// Horizontal concatenation (Feature Fusion's `AGG = Concatenation`).
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let _t = qdgnn_obs::op_timer("tensor.concat_cols");
        let mats: Vec<&Dense> = parts.iter().map(|p| &*self.nodes[p.0].value).collect();
        let v = Dense::concat_cols(&mats);
        self.push(v, Op::ConcatCols { parts: parts.iter().map(|p| p.0).collect() })
    }

    /// Mean over all elements, as a 1×1 matrix.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let _t = qdgnn_obs::op_timer("tensor.mean_all");
        let v = Dense::from_vec(1, 1, vec![self.val(a).mean()]);
        self.push(v, Op::MeanAll { a: a.0 })
    }

    /// Mean binary cross-entropy between logits `a` and constant `target`
    /// (Eq. 3 of the paper), with optional per-element weights.
    pub fn bce_with_logits(
        &mut self,
        a: Var,
        target: Arc<Dense>,
        weights: Option<Arc<Dense>>,
    ) -> Var {
        let _t = qdgnn_obs::op_timer("tensor.bce_with_logits");
        let loss = ops::bce_with_logits_mean(self.val(a), &target, weights.as_deref());
        let v = Dense::from_vec(1, 1, vec![loss]);
        self.push(v, Op::BceWithLogitsMean { a: a.0, target, weights })
    }

    #[inline]
    fn val(&self, v: Var) -> &Dense {
        &self.nodes[v.index()].value
    }

    /// Runs the backward pass from scalar `loss` (must be 1×1) and returns
    /// per-variable gradients.
    ///
    /// # Panics
    /// Panics if `loss` is not a 1×1 value.
    pub fn backward(&self, loss: Var) -> Gradients {
        let _t = qdgnn_obs::op_timer("tensor.backward");
        if qdgnn_obs::enabled() {
            // Bytes of forward values this backward pass keeps alive —
            // the activation-memory cost of differentiating this graph.
            let retained: u64 = self.nodes.iter().map(|n| n.value.heap_bytes()).sum();
            qdgnn_obs::observe("tensor.tape_retained_bytes", retained as f64);
        }
        assert_eq!(self.shape(loss), (1, 1), "backward seed must be a scalar");
        let mut grads: Vec<Option<Dense>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.index()] = Some(Dense::from_vec(1, 1, vec![1.0]));

        for idx in (0..self.nodes.len()).rev() {
            let Some(g) = grads[idx].take() else { continue };
            let node = &self.nodes[idx];
            match &node.op {
                Op::Leaf => {
                    grads[idx] = Some(g); // keep for the caller
                    continue;
                }
                Op::Matmul { a, b } => {
                    let da = g.matmul_transpose(&self.nodes[*b].value);
                    let db = self.nodes[*a].value.transpose_matmul(&g);
                    accumulate(&mut grads, *a, da);
                    accumulate(&mut grads, *b, db);
                }
                Op::Spmm { mt, b } => {
                    let db = mt.spmm(&g);
                    accumulate(&mut grads, *b, db);
                }
                Op::Add { a, b } => {
                    accumulate(&mut grads, *a, g.clone());
                    accumulate(&mut grads, *b, g);
                }
                Op::Sub { a, b } => {
                    accumulate(&mut grads, *b, g.scaled(-1.0));
                    accumulate(&mut grads, *a, g);
                }
                Op::Hadamard { a, b } => {
                    let da = g.hadamard(&self.nodes[*b].value);
                    let db = g.hadamard(&self.nodes[*a].value);
                    accumulate(&mut grads, *a, da);
                    accumulate(&mut grads, *b, db);
                }
                Op::AddRow { a, r } => {
                    accumulate(&mut grads, *r, g.col_sums());
                    accumulate(&mut grads, *a, g);
                }
                Op::MulRow { a, r } => {
                    let rv = &self.nodes[*r].value;
                    let av = &self.nodes[*a].value;
                    let da = ops::mul_row_broadcast(&g, rv);
                    let dr = g.hadamard(av).col_sums();
                    accumulate(&mut grads, *a, da);
                    accumulate(&mut grads, *r, dr);
                }
                Op::MulCol { a, c } => {
                    let cv = &self.nodes[*c].value;
                    let av = &self.nodes[*a].value;
                    let da = ops::mul_col_broadcast(&g, cv);
                    let dc = ops::row_sums(&g.hadamard(av));
                    accumulate(&mut grads, *a, da);
                    accumulate(&mut grads, *c, dc);
                }
                Op::ColMean { a } => {
                    let rows = self.nodes[*a].value.rows();
                    let da = ops::broadcast_rows(&g, rows).scaled(1.0 / rows as f32);
                    accumulate(&mut grads, *a, da);
                }
                Op::Relu { a } => {
                    // node.value holds max(x,0); its positivity mask equals x>0
                    // except exactly at 0 where the subgradient 0 is used.
                    let mut da = g;
                    for (d, &y) in da.as_mut_slice().iter_mut().zip(node.value.as_slice()) {
                        if y <= 0.0 {
                            *d = 0.0;
                        }
                    }
                    accumulate(&mut grads, *a, da);
                }
                Op::Sigmoid { a } => {
                    let mut da = g;
                    for (d, &s) in da.as_mut_slice().iter_mut().zip(node.value.as_slice()) {
                        *d *= s * (1.0 - s);
                    }
                    accumulate(&mut grads, *a, da);
                }
                Op::Scale { a, k } => {
                    accumulate(&mut grads, *a, g.scaled(*k));
                }
                Op::AddScalar { a } => {
                    accumulate(&mut grads, *a, g);
                }
                Op::Rsqrt { a } => {
                    // y = x^(-1/2)  ⇒  dy/dx = −y³/2.
                    let mut da = g;
                    for (d, &y) in da.as_mut_slice().iter_mut().zip(node.value.as_slice()) {
                        *d *= -0.5 * y * y * y;
                    }
                    accumulate(&mut grads, *a, da);
                }
                Op::ConcatCols { parts } => {
                    let mut offset = 0;
                    for &p in parts {
                        let width = self.nodes[p].value.cols();
                        let dp = g.slice_cols(offset, width);
                        accumulate(&mut grads, p, dp);
                        offset += width;
                    }
                }
                Op::MeanAll { a } => {
                    let (r, c) = self.nodes[*a].value.shape();
                    let scale = g.get(0, 0) / (r * c) as f32;
                    accumulate(&mut grads, *a, Dense::full(r, c, scale));
                }
                Op::BceWithLogitsMean { a, target, weights } => {
                    // d/dx mean-BCE = (σ(x) − y) · w / N.
                    let logits = &self.nodes[*a].value;
                    let n = logits.len() as f32;
                    let scale = g.get(0, 0) / n;
                    let mut da = Dense::zeros(logits.rows(), logits.cols());
                    for i in 0..logits.len() {
                        let x = logits.as_slice()[i];
                        let y = target.as_slice()[i];
                        let w = weights.as_ref().map_or(1.0, |w| w.as_slice()[i]);
                        da.as_mut_slice()[i] = (ops::sigmoid(x) - y) * w * scale;
                    }
                    accumulate(&mut grads, *a, da);
                }
            }
        }
        Gradients { grads }
    }
}

fn accumulate(grads: &mut [Option<Dense>], idx: usize, delta: Dense) {
    match &mut grads[idx] {
        Some(g) => g.add_assign(&delta),
        slot => *slot = Some(delta),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_loss(t: &mut Tape, v: Var) -> Var {
        t.mean_all(v)
    }

    #[test]
    #[cfg(feature = "sanitize")]
    #[should_panic(expected = "op `rsqrt` produced non-finite value")]
    fn sanitize_names_the_offending_op() {
        let _lock = crate::sanitize::test_lock();
        let mut t = Tape::new();
        let x = t.leaf(Arc::new(Dense::from_rows(&[&[4.0, -1.0]])));
        let _ = t.rsqrt(x); // rsqrt(-1) = NaN → provenance panic
    }

    #[test]
    #[cfg(feature = "sanitize")]
    fn sanitize_scoped_off_lets_nonfinite_flow() {
        let _lock = crate::sanitize::test_lock();
        let _guard = crate::sanitize::scoped_off();
        let mut t = Tape::new();
        let x = t.leaf(Arc::new(Dense::from_rows(&[&[4.0, -1.0]])));
        let y = t.rsqrt(x);
        assert!(t.value(y).get(0, 1).is_nan());
    }

    #[test]
    fn matmul_gradients_match_analytic() {
        // loss = mean(A·B); dA = ones·Bᵀ / N, dB = Aᵀ·ones / N.
        let mut t = Tape::new();
        let a = t.leaf(Arc::new(Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])));
        let b = t.leaf(Arc::new(Dense::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]])));
        let c = t.matmul(a, b);
        let loss = scalar_loss(&mut t, c);
        let g = t.backward(loss);
        let ones = Dense::full(2, 2, 0.25);
        let da = ones.matmul_transpose(t.value(b));
        let db = t.value(a).transpose_matmul(&ones);
        assert!(g.get(a).unwrap().approx_eq(&da, 1e-6));
        assert!(g.get(b).unwrap().approx_eq(&db, 1e-6));
    }

    #[test]
    fn relu_kills_negative_gradient() {
        let mut t = Tape::new();
        let x = t.leaf(Arc::new(Dense::row_vector(&[-1.0, 2.0])));
        let y = t.relu(x);
        let loss = scalar_loss(&mut t, y);
        let g = t.backward(loss);
        assert!(g.get(x).unwrap().approx_eq(&Dense::row_vector(&[0.0, 0.5]), 1e-6));
    }

    #[test]
    fn unused_leaf_has_no_gradient() {
        let mut t = Tape::new();
        let x = t.leaf(Arc::new(Dense::row_vector(&[1.0])));
        let y = t.leaf(Arc::new(Dense::row_vector(&[2.0])));
        let loss = scalar_loss(&mut t, x);
        let g = t.backward(loss);
        assert!(g.get(y).is_none());
        assert!(g.get(x).is_some());
    }

    #[test]
    fn spmm_gradient_routes_through_transpose() {
        let m = Arc::new(Csr::from_triplets(2, 3, &[(0, 0, 2.0), (1, 2, -1.0)]));
        let mt = Arc::new(m.transpose());
        let mut t = Tape::new();
        let b = t.leaf(Arc::new(Dense::from_rows(&[&[1.0], &[2.0], &[3.0]])));
        let y = t.spmm(&m, &mt, b);
        let loss = t.mean_all(y);
        let g = t.backward(loss);
        // dB = Mᵀ · (1/2 each)
        let expect = mt.spmm(&Dense::full(2, 1, 0.5));
        assert!(g.get(b).unwrap().approx_eq(&expect, 1e-6));
    }

    #[test]
    fn concat_splits_gradient() {
        let mut t = Tape::new();
        let a = t.leaf(Arc::new(Dense::from_rows(&[&[1.0, 2.0]])));
        let b = t.leaf(Arc::new(Dense::from_rows(&[&[3.0]])));
        let c = t.concat_cols(&[a, b]);
        let loss = t.mean_all(c);
        let g = t.backward(loss);
        assert_eq!(g.get(a).unwrap().shape(), (1, 2));
        assert_eq!(g.get(b).unwrap().shape(), (1, 1));
        let third = 1.0 / 3.0;
        assert!(g.get(a).unwrap().approx_eq(&Dense::row_vector(&[third, third]), 1e-6));
    }

    #[test]
    fn bce_gradient_is_sigmoid_minus_target() {
        let mut t = Tape::new();
        let x = t.leaf(Arc::new(Dense::row_vector(&[0.0, 3.0])));
        let target = Arc::new(Dense::row_vector(&[1.0, 0.0]));
        let loss = t.bce_with_logits(x, Arc::clone(&target), None);
        let g = t.backward(loss);
        let expect =
            Dense::row_vector(&[(ops::sigmoid(0.0) - 1.0) / 2.0, ops::sigmoid(3.0) / 2.0]);
        assert!(g.get(x).unwrap().approx_eq(&expect, 1e-6));
    }

    #[test]
    fn reused_variable_accumulates_gradient() {
        // loss = mean(x + x) ⇒ dx = 2/N.
        let mut t = Tape::new();
        let x = t.leaf(Arc::new(Dense::row_vector(&[1.0, 2.0])));
        let y = t.add(x, x);
        let loss = t.mean_all(y);
        let g = t.backward(loss);
        assert!(g.get(x).unwrap().approx_eq(&Dense::row_vector(&[1.0, 1.0]), 1e-6));
    }
}
