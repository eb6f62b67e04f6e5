//! Model hyper-parameters (§7.1.6 defaults).

use qdgnn_graph::attributed::AdjNorm;

/// Aggregation used by the Feature Fusion operator (Eq. 6 / Eq. 11).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FusionAgg {
    /// Column concatenation (the paper's choice, §7.1.6).
    Concat,
    /// Elementwise sum (requires equal encoder widths; kept for the
    /// fusion-aggregation ablation).
    Sum,
    /// Learned per-vertex sigmoid gates, one per branch, applied before
    /// summation — an extension in the spirit of the attention
    /// techniques the paper cites ([12, 28, 40]); evaluated by the
    /// `extras` ablation binary.
    Attention,
}

/// Hyper-parameters shared by the three models.
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// Number of GNN layers `k` (paper: 3).
    pub layers: usize,
    /// Hidden width per encoder (paper: 128).
    pub hidden: usize,
    /// Dropout rate (paper: 0.5).
    pub dropout: f32,
    /// Fusion aggregation (paper: concatenation).
    pub fusion: FusionAgg,
    /// Whether intermediate layers consume fused features (Eq. 7 / 12).
    /// `false` reproduces the QD-GNN-noFu / AQD-GNN-noFu ablation of
    /// §7.5.1, where encoders only fuse after the last layer.
    pub feature_fusion: bool,
    /// Adjacency normalization for the SUM aggregation (see
    /// [`AdjNorm`]; `GcnSym` is the faithful default).
    pub adj_norm: AdjNorm,
    /// Up-weight positive vertices in the BCE loss by `|neg|/|pos|`
    /// (stabilizes training on large graphs with small communities; the
    /// paper's plain BCE corresponds to `false`).
    pub class_balance: bool,
    /// Per-attribute frequency cap when building the fusion graph
    /// (§6.6); attributes more frequent than this add no fusion edges.
    pub fusion_graph_attr_cap: usize,
    /// RNG seed for parameter initialization and dropout streams.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            layers: 3,
            hidden: 128,
            dropout: 0.5,
            fusion: FusionAgg::Concat,
            feature_fusion: true,
            adj_norm: AdjNorm::GcnSym,
            class_balance: true,
            fusion_graph_attr_cap: 100,
            seed: 1,
        }
    }
}

impl ModelConfig {
    /// A small fast configuration for tests and examples.
    pub fn fast() -> Self {
        ModelConfig { layers: 3, hidden: 32, ..Default::default() }
    }

    /// Width of the fused feature for `branches` encoder outputs.
    pub fn fused_width(&self, branches: usize) -> usize {
        match self.fusion {
            FusionAgg::Concat => self.hidden * branches,
            FusionAgg::Sum | FusionAgg::Attention => self.hidden,
        }
    }

    /// Validates invariants; call before building a model.
    ///
    /// # Panics
    /// Panics on a degenerate configuration.
    pub fn validate(&self) {
        assert!(self.layers >= 1, "need at least one layer");
        assert!(self.hidden >= 1, "hidden width must be positive");
        assert!((0.0..1.0).contains(&self.dropout), "dropout must be in [0,1)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ModelConfig::default();
        assert_eq!(c.layers, 3);
        assert_eq!(c.hidden, 128);
        assert_eq!(c.dropout, 0.5);
        assert_eq!(c.fusion, FusionAgg::Concat);
        assert!(c.feature_fusion);
    }

    #[test]
    fn fused_width_by_agg() {
        let mut c = ModelConfig::fast();
        assert_eq!(c.fused_width(3), 96);
        c.fusion = FusionAgg::Sum;
        assert_eq!(c.fused_width(3), 32);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn zero_layers_rejected() {
        ModelConfig { layers: 0, ..Default::default() }.validate();
    }
}
