//! Layers: batch normalization over the vertex dimension, and dropout.

use std::sync::Arc;

use rand::Rng;

use qdgnn_tensor::{Dense, ParamId, ParamStore, Tape, Var};

/// Whether a forward pass is a training pass (batch statistics, dropout
/// active) or an inference pass (running statistics, dropout off).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Training: batch-norm uses batch statistics, dropout samples masks.
    Train,
    /// Inference: batch-norm uses running statistics, dropout is identity.
    Eval,
}

/// Batch statistics produced by a train-mode [`BatchNorm1d`] forward pass,
/// to be folded into the running estimates by the trainer (on the main
/// thread, so data-parallel workers never mutate shared state).
#[derive(Clone, Debug)]
pub struct BnStats {
    /// Per-feature batch mean (1×c).
    pub mean: Dense,
    /// Per-feature batch variance (1×c, biased).
    pub var: Dense,
}

/// Batch normalization over the row (vertex) dimension.
///
/// The paper applies BN inside every layer (Eq. 1). Features here are
/// per-vertex hidden features, so normalization is per feature column
/// across all `n` vertices of the graph.
#[derive(Clone, Debug)]
pub struct BatchNorm1d {
    gamma: ParamId,
    beta: ParamId,
    running_mean: Dense,
    running_var: Dense,
    momentum: f32,
    eps: f32,
    dim: usize,
}

impl BatchNorm1d {
    /// Registers γ=1, β=0 parameters of width `dim` under `name`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gamma = store.ones(format!("{name}.gamma"), 1, dim);
        let beta = store.zeros(format!("{name}.beta"), 1, dim);
        BatchNorm1d {
            gamma,
            beta,
            running_mean: Dense::zeros(1, dim),
            running_var: Dense::full(1, dim, 1.0),
            momentum: 0.1,
            eps: qdgnn_tensor::EPS,
            dim,
        }
    }

    /// Feature width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Records the normalization on the tape.
    ///
    /// In [`Mode::Train`] the batch statistics are differentiated through
    /// (the full BN backward) and returned for the trainer to fold into
    /// the running estimates; in [`Mode::Eval`] the stored running
    /// statistics are used as constants.
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        mode: Mode,
    ) -> (Var, Vec<(Var, ParamId)>, Option<BnStats>) {
        let g = tape.leaf(Arc::clone(store.value(self.gamma)));
        let b = tape.leaf(Arc::clone(store.value(self.beta)));
        let leaves = vec![(g, self.gamma), (b, self.beta)];
        match mode {
            Mode::Train => {
                let mu = tape.col_mean(x);
                let neg_mu = tape.scale(mu, -1.0);
                let xc = tape.add_row(x, neg_mu);
                let sq = tape.hadamard(xc, xc);
                let var = tape.col_mean(sq);
                let var_eps = tape.add_scalar(var, self.eps);
                let istd = tape.rsqrt(var_eps);
                let xhat = tape.mul_row(xc, istd);
                let scaled = tape.mul_row(xhat, g);
                let y = tape.add_row(scaled, b);
                let stats = BnStats {
                    mean: (**tape.value(mu)).clone(),
                    var: (**tape.value(var)).clone(),
                };
                (y, leaves, Some(stats))
            }
            Mode::Eval => {
                let (neg_mu, istd) = self.eval_shift_scale();
                let neg_mu = tape.constant(neg_mu);
                let istd = tape.constant(istd);
                let xc = tape.add_row(x, neg_mu);
                let xhat = tape.mul_row(xc, istd);
                let scaled = tape.mul_row(xhat, g);
                let y = tape.add_row(scaled, b);
                (y, leaves, None)
            }
        }
    }

    /// The eval-mode constants `(−running_mean, 1/√(running_var + ε))`:
    /// eval batch norm is `((x + neg_mean) · inv_std) · γ + β`, recorded
    /// op by op by [`BatchNorm1d::forward`] and fused into one kernel
    /// epilogue by the serving executor, both from these values.
    pub fn eval_shift_scale(&self) -> (Dense, Dense) {
        let neg_mean = self.running_mean.scaled(-1.0);
        (neg_mean, self.running_var.map(|v| 1.0 / (v + self.eps).sqrt()))
    }

    /// The `(γ, β)` parameter ids.
    pub fn affine_params(&self) -> (ParamId, ParamId) {
        (self.gamma, self.beta)
    }

    /// Folds batch statistics into the running estimates:
    /// `running ← (1−m)·running + m·batch`.
    pub fn apply_stats(&mut self, stats: &BnStats) {
        assert_eq!(stats.mean.shape(), (1, self.dim), "stats width mismatch");
        self.running_mean.scale_assign(1.0 - self.momentum);
        self.running_mean.add_scaled_assign(&stats.mean, self.momentum);
        self.running_var.scale_assign(1.0 - self.momentum);
        self.running_var.add_scaled_assign(&stats.var, self.momentum);
    }

    /// Current running mean (for checkpoint/inspection).
    pub fn running_mean(&self) -> &Dense {
        &self.running_mean
    }

    /// Current running variance (for checkpoint/inspection).
    pub fn running_var(&self) -> &Dense {
        &self.running_var
    }

    /// Overwrites the running statistics (checkpoint restore).
    pub fn set_running(&mut self, mean: Dense, var: Dense) {
        assert_eq!(mean.shape(), (1, self.dim), "mean width mismatch");
        assert_eq!(var.shape(), (1, self.dim), "var width mismatch");
        self.running_mean = mean;
        self.running_var = var;
    }
}

/// Inverted dropout: at train time each element is zeroed with probability
/// `p` and survivors are scaled by `1/(1−p)`; identity at eval time.
#[derive(Clone, Copy, Debug)]
pub struct Dropout {
    /// Drop probability in `[0, 1)`.
    pub p: f32,
}

impl Dropout {
    /// Creates a dropout layer.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p < 1`.
    pub fn new(p: f32) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0,1), got {p}");
        Dropout { p }
    }

    /// Records dropout on the tape.
    pub fn forward(&self, tape: &mut Tape, x: Var, mode: Mode, rng: &mut impl Rng) -> Var {
        if mode == Mode::Eval || self.p <= 0.0 {
            return x;
        }
        let (rows, cols) = tape.shape(x);
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mask_data: Vec<f32> = (0..rows * cols)
            .map(|_| if rng.gen::<f32>() < keep { scale } else { 0.0 })
            .collect();
        let mask = tape.constant(Dense::from_vec(rows, cols, mask_data));
        tape.hadamard(x, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn batchnorm_train_normalizes_columns() {
        let mut store = ParamStore::new();
        let bn = BatchNorm1d::new(&mut store, "bn", 2);
        let mut tape = Tape::new();
        let x = tape.constant(Dense::from_rows(&[&[1.0, 10.0], &[3.0, 30.0], &[5.0, 50.0]]));
        let (y, _, stats) = bn.forward(&mut tape, &store, x, Mode::Train);
        let out = tape.value(y);
        // Each column should have ≈0 mean and ≈1 variance.
        let means = out.col_means();
        assert!(means.max_abs() < 1e-5);
        let stats = stats.unwrap();
        assert!(stats.mean.approx_eq(&Dense::row_vector(&[3.0, 30.0]), 1e-5));
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut store = ParamStore::new();
        let mut bn = BatchNorm1d::new(&mut store, "bn", 1);
        bn.set_running(Dense::row_vector(&[2.0]), Dense::row_vector(&[4.0]));
        let mut tape = Tape::new();
        let x = tape.constant(Dense::column_vector(&[4.0]));
        let (y, _, stats) = bn.forward(&mut tape, &store, x, Mode::Eval);
        assert!(stats.is_none());
        // (4 − 2) / sqrt(4 + eps) ≈ 1.
        assert!((tape.value(y).get(0, 0) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn batchnorm_running_stats_ema() {
        let mut store = ParamStore::new();
        let mut bn = BatchNorm1d::new(&mut store, "bn", 1);
        bn.apply_stats(&BnStats {
            mean: Dense::row_vector(&[10.0]),
            var: Dense::row_vector(&[2.0]),
        });
        assert!((bn.running_mean().get(0, 0) - 1.0).abs() < 1e-6);
        assert!((bn.running_var().get(0, 0) - (0.9 + 0.2)).abs() < 1e-6);
    }

    #[test]
    fn dropout_eval_is_identity_train_scales() {
        let mut rng = StdRng::seed_from_u64(1);
        let drop = Dropout::new(0.5);
        let mut tape = Tape::new();
        let x = tape.constant(Dense::full(100, 10, 1.0));
        let y_eval = drop.forward(&mut tape, x, Mode::Eval, &mut rng);
        assert_eq!(y_eval, x);
        let y_train = drop.forward(&mut tape, x, Mode::Train, &mut rng);
        let v = tape.value(y_train);
        // Surviving entries are scaled to 2.0; overall mean stays ≈ 1.
        assert!(v.as_slice().iter().all(|&e| e == 0.0 || e == 2.0));
        assert!((v.mean() - 1.0).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn dropout_rejects_p_one() {
        let _ = Dropout::new(1.0);
    }
}
