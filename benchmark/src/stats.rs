//! Exact order statistics over raw samples: no histograms, no
//! interpolation, so a change of any size moves the reported quantile.

/// Fewest samples a tail percentile must leave beyond itself before the
/// benchmark trusts it.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the tail rule picks from, highest first.
pub const TAIL_LADDER: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// 1-based nearest rank of percentile `p` among `n` samples: the
/// smallest rank `r` with `r / n >= p / 100`. Computed in integer
/// tenths of a percent so `p = 99, n = 100` gives rank 99, not 100.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it.
pub fn highest_supported(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Fewest samples that leave [`MIN_BEYOND`] beyond the nearest-rank
/// `p`-th percentile; `usize::MAX` when no count does (`p` = 100).
pub fn block_len(p: f64) -> usize {
    (1..=100_000)
        .find(|&n| samples_beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(usize::MAX)
}

/// The median, over consecutive blocks of `samples` in the order they
/// were taken, of each block's nearest-rank `p`-th percentile. Every
/// block holds at least `block` samples, and there are as many blocks as
/// that allows, at least one. A slow stretch of the machine that spoils
/// fewer than half of the blocks cannot move the result. NaN when empty.
pub fn block_pct(samples: &[f64], block: usize, p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let blocks = (samples.len() / block.max(1)).max(1);
    let per_block = samples
        .chunks_exact(samples.len() / blocks)
        .map(|b| Dist::new(b.to_vec()).pct(p))
        .collect();
    Dist::new(per_block).median()
}

/// Raw samples, sorted once, queried by nearest rank.
#[derive(Clone, Debug, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Sorts `samples` (total order, so a NaN cannot scramble it).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Nearest-rank percentile `p` in `[0, 100]`; NaN when empty.
    pub fn pct(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            f64::NAN
        } else {
            self.sorted[rank(self.sorted.len(), p) - 1]
        }
    }

    /// The nearest-rank median.
    pub fn median(&self) -> f64 {
        self.pct(50.0)
    }

    /// Arithmetic mean; NaN when empty.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact_samples() {
        let d = Dist::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(d.pct(50.0), 50.0);
        assert_eq!(d.pct(99.0), 99.0);
        assert_eq!(d.pct(99.9), 100.0);
        assert_eq!(d.pct(100.0), 100.0);
        assert_eq!(d.pct(0.0), 1.0);
        let odd = Dist::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(odd.median(), 2.0);
        assert_eq!(odd.pct(95.0), 3.0);
        assert_eq!(Dist::new(vec![7.5]).pct(99.0), 7.5);
        assert!(Dist::default().pct(50.0).is_nan());
    }

    #[test]
    fn quantiles_see_a_shift_inside_one_octave() {
        // A log2-bucket histogram reports the same midpoint for both.
        let base = Dist::new((0..1000).map(|i| 600.0 + f64::from(i) * 0.1).collect());
        let slower = Dist::new(
            (0..1000)
                .map(|i| 1.2 * (600.0 + f64::from(i) * 0.1))
                .collect(),
        );
        assert!(slower.median() > 1.19 * base.median());
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(999), Some(98.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(40), Some(75.0));
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn blocks_leave_ten_samples_beyond_their_percentile() {
        assert_eq!(block_len(99.0), 1000);
        assert_eq!(block_len(98.0), 500);
        assert_eq!(block_len(95.0), 200);
        assert_eq!(block_len(50.0), 20);
        assert_eq!(block_len(100.0), usize::MAX);
    }

    #[test]
    fn block_percentiles_ignore_a_slow_stretch() {
        // Four blocks of 1..=200; the third is three times slower.
        let mut samples: Vec<f64> = Vec::new();
        for slow in [1.0, 1.0, 3.0, 1.0] {
            samples.extend((1..=200).map(|i| slow * f64::from(i)));
        }
        assert_eq!(block_pct(&samples, 200, 95.0), 190.0);
        assert_eq!(block_pct(&samples, 200, 50.0), 100.0);
        // Pooled, the slow block lifts the p95 to a slow sample.
        assert!(Dist::new(samples.clone()).pct(95.0) > 200.0);
        // Too few for one block: the percentile of all of them.
        assert_eq!(block_pct(&samples[..150], 200, 50.0), 75.0);
        assert_eq!(block_pct(&samples[..150], usize::MAX, 50.0), 75.0);
        assert!(block_pct(&[], 200, 50.0).is_nan());
    }
}
