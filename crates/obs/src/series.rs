//! Step-indexed metric series: the journaled training curves behind the
//! run registry ([`crate::runs`]).
//!
//! A *series* is a named sequence of `(step, value)` observations —
//! `train.loss` per epoch, `train.val_f1` per validation — journaled as
//! append-only NDJSON, one [`SeriesPoint`] per line:
//!
//! ```text
//! {"type":"series","series":"train.loss","step":3,"value":0.4218}
//! ```
//!
//! Unlike the event stream (wall-clock ordered, lossy under the event
//! cap), series are **step-indexed and exact**: steps within one series
//! must be strictly increasing and duplicate `(series, step)` pairs are
//! rejected, so two runs of the same configuration produce byte-identical
//! journals and `qdgnn-obs-runs diff` can compare them mechanically.
//! Points carry no timestamps for exactly that reason — crash/resume
//! bit-identity of the journal is a tested contract.
//!
//! The diff thresholds ([`WARN_RATIO`], [`FAIL_RATIO`]) are the noise
//! tolerance `qdgnn-obs-runs diff` applies when it judges one training
//! run against another.

use std::collections::BTreeMap;

use crate::json;

/// Ratio above which a compared series fails ([`diff_stores`]).
pub const FAIL_RATIO: f64 = 1.25;
/// Ratio above which a compared series warns (but at most
/// [`FAIL_RATIO`]).
pub const WARN_RATIO: f64 = 1.10;

/// One journaled observation of one series at one step.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesPoint {
    /// Series name, e.g. `train.loss`.
    pub series: String,
    /// Step index (epoch, round, …); strictly increasing per series.
    pub step: u64,
    /// Observed value.
    pub value: f64,
}

impl SeriesPoint {
    /// Serializes as one NDJSON line.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"type\":\"series\",\"series\":{},\"step\":{},\"value\":{}}}",
            json::escape(&self.series),
            self.step,
            json::num(self.value)
        )
    }

    /// Parses one NDJSON line back into a [`SeriesPoint`].
    pub fn from_json(line: &str) -> Result<SeriesPoint, String> {
        let v = json::parse(line)?;
        match v.get("type").and_then(json::Value::as_str) {
            Some("series") => {}
            other => return Err(format!("not a series line (type {other:?})")),
        }
        let series = v
            .get("series")
            .and_then(json::Value::as_str)
            .ok_or_else(|| "missing string \"series\"".to_string())?
            .to_string();
        let step = v
            .get("step")
            .and_then(json::Value::as_num)
            // qdgnn-analyze: allow(QD002, reason = "fract() == 0.0 is the exact integrality test for a step index; any tolerance would admit fractional steps")
            .filter(|n| n.is_finite() && *n >= 0.0 && n.fract() == 0.0)
            .ok_or_else(|| "missing or non-integer \"step\"".to_string())?
            as u64;
        let value = v
            .get("value")
            .and_then(json::Value::as_num)
            .ok_or_else(|| "missing numeric \"value\"".to_string())?;
        Ok(SeriesPoint { series, step, value })
    }
}

/// An in-memory series journal: insertion-ordered points (so a rewrite
/// reproduces the file byte-for-byte) plus a per-series monotonicity
/// index.
#[derive(Clone, Debug, Default)]
pub struct SeriesStore {
    points: Vec<SeriesPoint>,
    last_step: BTreeMap<String, u64>,
}

impl SeriesStore {
    /// Creates an empty store.
    pub fn new() -> SeriesStore {
        SeriesStore::default()
    }

    /// Appends one observation.
    ///
    /// # Errors
    /// Rejects a step that is not strictly greater than the series'
    /// last recorded step (duplicate or regressed index).
    pub fn observe(&mut self, series: &str, step: u64, value: f64) -> Result<(), String> {
        if let Some(&last) = self.last_step.get(series) {
            if step <= last {
                return Err(format!(
                    "series `{series}`: step {step} is not after last step {last} \
                     (duplicate or regressed index)"
                ));
            }
        }
        self.last_step.insert(series.to_string(), step);
        self.points.push(SeriesPoint { series: series.to_string(), step, value });
        Ok(())
    }

    /// Parses a full NDJSON journal, enforcing the monotonicity/no-dup
    /// invariant line by line.
    pub fn from_ndjson(text: &str) -> Result<SeriesStore, String> {
        let mut store = SeriesStore::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let p = SeriesPoint::from_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            store
                .observe(&p.series, p.step, p.value)
                .map_err(|e| format!("line {}: {e}", i + 1))?;
        }
        Ok(store)
    }

    /// Serializes every point, in insertion order, one line each.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for p in &self.points {
            out.push_str(&p.to_json());
            out.push('\n');
        }
        out
    }

    /// Drops every point whose step is `>= step`, across all series —
    /// the resume primitive: a run continued from an epoch-`k` checkpoint
    /// truncates the journal to steps `< k` before replaying, so the
    /// resumed journal ends up identical to an uninterrupted run's.
    pub fn truncate_from(&mut self, step: u64) {
        self.points.retain(|p| p.step < step);
        self.last_step.clear();
        for p in &self.points {
            self.last_step.insert(p.series.clone(), p.step);
        }
    }

    /// All points, in insertion order.
    pub fn points(&self) -> &[SeriesPoint] {
        &self.points
    }

    /// Sorted distinct series names.
    pub fn names(&self) -> Vec<&str> {
        self.last_step.keys().map(String::as_str).collect()
    }

    /// The `(step, value)` sequence of one series, in step order.
    pub fn get(&self, series: &str) -> Vec<(u64, f64)> {
        self.points
            .iter()
            .filter(|p| p.series == series)
            .map(|p| (p.step, p.value))
            .collect()
    }

    /// The final `(step, value)` of one series.
    pub fn last(&self, series: &str) -> Option<(u64, f64)> {
        self.points.iter().rev().find(|p| p.series == series).map(|p| (p.step, p.value))
    }

    /// Total recorded points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the store holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// How a series' values should be judged when two runs are compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Smaller final value is better (losses, latencies, byte counts).
    LowerIsBetter,
    /// Larger final value is better (F1, accuracy, throughput).
    HigherIsBetter,
    /// Not a quality metric (learning rate, γ): reported, never gated.
    Info,
}

/// Classifies a series name by suffix convention: `*loss*`, `*_us`,
/// `*bytes*` are lower-is-better; `*f1*`, `*acc*`, `*qps*`,
/// `*throughput*` are higher-is-better; everything else is
/// informational and never fails a diff.
pub fn direction(series: &str) -> Direction {
    let s = series.to_ascii_lowercase();
    if s.contains("loss") || s.ends_with("_us") || s.contains("bytes") {
        Direction::LowerIsBetter
    } else if s.contains("f1") || s.contains("acc") || s.contains("qps") || s.contains("throughput")
    {
        Direction::HigherIsBetter
    } else {
        Direction::Info
    }
}

/// Outcome of one compared series (ordered by severity).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DiffVerdict {
    /// Not gated (informational series, or nothing to compare).
    Info,
    /// Within the noise band.
    Pass,
    /// Ratio above [`WARN_RATIO`]; reported but not fatal.
    Warn,
    /// Ratio above [`FAIL_RATIO`], or the series vanished.
    Fail,
}

impl DiffVerdict {
    /// Short uppercase tag for report lines.
    pub fn tag(self) -> &'static str {
        match self {
            DiffVerdict::Info => "INFO",
            DiffVerdict::Pass => "PASS",
            DiffVerdict::Warn => "WARN",
            DiffVerdict::Fail => "FAIL",
        }
    }
}

/// One compared series: final values of both runs and the verdict.
#[derive(Clone, Debug)]
pub struct SeriesDiff {
    /// Series name.
    pub series: String,
    /// Baseline run's final value (`None` if the series is new).
    pub baseline: Option<f64>,
    /// Candidate run's final value (`None` if the series vanished).
    pub candidate: Option<f64>,
    /// Regression ratio (1.0 = at baseline, >1.0 = worse; NaN when not
    /// comparable).
    pub ratio: f64,
    /// The verdict.
    pub verdict: DiffVerdict,
}

impl SeriesDiff {
    /// One human-readable report line.
    pub fn line(&self) -> String {
        let fmt = |v: Option<f64>| match v {
            Some(v) => format!("{v:>12.5}"),
            None => format!("{:>12}", "-"),
        };
        let ratio = if self.ratio.is_nan() {
            "-".to_string()
        } else {
            format!("{:.3}", self.ratio)
        };
        format!(
            "{} {:<28} baseline {}  candidate {}  ratio {}",
            self.verdict.tag(),
            self.series,
            fmt(self.baseline),
            fmt(self.candidate),
            ratio
        )
    }
}

fn judge(ratio: f64) -> DiffVerdict {
    if ratio > FAIL_RATIO {
        DiffVerdict::Fail
    } else if ratio > WARN_RATIO {
        DiffVerdict::Warn
    } else {
        DiffVerdict::Pass
    }
}

/// Compares the final value of every series of `baseline` against
/// `candidate` with noise-tolerant thresholds: a gated
/// series regressed past ×[`FAIL_RATIO`] fails, past ×[`WARN_RATIO`]
/// warns. A gated series present in the baseline but missing from the
/// candidate fails (the metric vanished); a series new in the candidate
/// is informational. A non-positive baseline value passes (no meaningful
/// ratio).
pub fn diff_stores(baseline: &SeriesStore, candidate: &SeriesStore) -> Vec<SeriesDiff> {
    let mut names: Vec<&str> = baseline.names();
    for n in candidate.names() {
        if !names.contains(&n) {
            names.push(n);
        }
    }
    names.sort_unstable();
    let mut out = Vec::new();
    for name in names {
        let base = baseline.last(name).map(|(_, v)| v);
        let cand = candidate.last(name).map(|(_, v)| v);
        let dir = direction(name);
        let (ratio, verdict) = match (dir, base, cand) {
            (Direction::Info, ..) => (f64::NAN, DiffVerdict::Info),
            (_, None, _) => (f64::NAN, DiffVerdict::Info),
            (_, Some(_), None) => (f64::INFINITY, DiffVerdict::Fail),
            (Direction::LowerIsBetter, Some(b), Some(c)) => {
                if b <= 0.0 {
                    (1.0, DiffVerdict::Pass)
                } else {
                    let r = c / b;
                    (r, judge(r))
                }
            }
            (Direction::HigherIsBetter, Some(b), Some(c)) => {
                if b <= 0.0 {
                    (1.0, DiffVerdict::Pass)
                } else if c <= 0.0 {
                    (f64::INFINITY, DiffVerdict::Fail)
                } else {
                    let r = b / c;
                    (r, judge(r))
                }
            }
        };
        out.push(SeriesDiff { series: name.to_string(), baseline: base, candidate: cand, ratio, verdict });
    }
    out
}

/// Worst verdict across all compared series (`Info` when empty).
pub fn overall(diffs: &[SeriesDiff]) -> DiffVerdict {
    diffs.iter().map(|d| d.verdict).max().unwrap_or(DiffVerdict::Info)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_round_trip() {
        let p = SeriesPoint { series: "train.loss".into(), step: 7, value: 0.125 };
        assert_eq!(SeriesPoint::from_json(&p.to_json()).unwrap(), p);
        assert!(SeriesPoint::from_json("{\"type\":\"event\",\"name\":\"x\"}").is_err());
        assert!(SeriesPoint::from_json(
            "{\"type\":\"series\",\"series\":\"s\",\"step\":1.5,\"value\":0}"
        )
        .is_err());
    }

    #[test]
    fn store_rejects_duplicate_and_regressed_steps() {
        let mut s = SeriesStore::new();
        s.observe("train.loss", 0, 1.0).unwrap();
        s.observe("train.loss", 1, 0.9).unwrap();
        s.observe("train.lr", 1, 1e-3).unwrap();
        assert!(s.observe("train.loss", 1, 0.8).unwrap_err().contains("duplicate or regressed"));
        assert!(s.observe("train.loss", 0, 0.8).is_err());
        assert_eq!(s.len(), 3);
        assert_eq!(s.last("train.loss"), Some((1, 0.9)));
    }

    #[test]
    fn ndjson_round_trip_preserves_interleaved_order() {
        let mut s = SeriesStore::new();
        for epoch in 0..3u64 {
            s.observe("train.loss", epoch, 1.0 / (epoch + 1) as f64).unwrap();
            s.observe("train.lr", epoch, 1e-3).unwrap();
        }
        let text = s.to_ndjson();
        let back = SeriesStore::from_ndjson(&text).unwrap();
        assert_eq!(back.points(), s.points());
        assert_eq!(back.to_ndjson(), text, "rewrite must be byte-identical");
        assert_eq!(back.names(), vec!["train.loss", "train.lr"]);
        assert_eq!(back.get("train.loss").len(), 3);
    }

    #[test]
    fn from_ndjson_rejects_violations_with_line_numbers() {
        let bad = concat!(
            "{\"type\":\"series\",\"series\":\"a\",\"step\":1,\"value\":1}\n",
            "{\"type\":\"series\",\"series\":\"a\",\"step\":1,\"value\":2}\n",
        );
        assert!(SeriesStore::from_ndjson(bad).unwrap_err().starts_with("line 2:"));
        let regress = concat!(
            "{\"type\":\"series\",\"series\":\"a\",\"step\":5,\"value\":1}\n",
            "{\"type\":\"series\",\"series\":\"a\",\"step\":3,\"value\":2}\n",
        );
        assert!(SeriesStore::from_ndjson(regress).is_err());
    }

    #[test]
    fn truncate_from_drops_tail_and_reopens_steps() {
        let mut s = SeriesStore::new();
        for epoch in 0..5u64 {
            s.observe("train.loss", epoch, epoch as f64).unwrap();
        }
        s.truncate_from(3);
        assert_eq!(s.get("train.loss"), vec![(0, 0.0), (1, 1.0), (2, 2.0)]);
        // Steps at/after the truncation point are appendable again.
        s.observe("train.loss", 3, 99.0).unwrap();
        assert!(s.observe("train.loss", 2, 0.0).is_err());
    }

    #[test]
    fn directions_classify_by_name() {
        assert_eq!(direction("train.loss"), Direction::LowerIsBetter);
        assert_eq!(direction("serve.p95_us"), Direction::LowerIsBetter);
        assert_eq!(direction("train.val_f1"), Direction::HigherIsBetter);
        assert_eq!(direction("serve.batched_qps"), Direction::HigherIsBetter);
        assert_eq!(direction("train.lr"), Direction::Info);
        assert_eq!(direction("train.val_gamma"), Direction::Info);
    }

    #[test]
    fn self_diff_passes_and_regressions_fail() {
        let mut a = SeriesStore::new();
        a.observe("train.loss", 0, 1.0).unwrap();
        a.observe("train.loss", 1, 0.4).unwrap();
        a.observe("train.val_f1", 1, 0.8).unwrap();
        a.observe("train.lr", 1, 1e-3).unwrap();

        let diffs = diff_stores(&a, &a);
        assert_eq!(overall(&diffs), DiffVerdict::Pass, "{diffs:?}");
        assert!(diffs.iter().all(|d| d.verdict <= DiffVerdict::Pass));

        // Candidate with a ×1.5 worse final loss: fail.
        let mut b = a.clone();
        b.observe("train.loss", 2, 0.6).unwrap();
        b.observe("train.val_f1", 2, 0.8).unwrap();
        b.observe("train.lr", 2, 1e-3).unwrap();
        let diffs = diff_stores(&a, &b);
        assert_eq!(overall(&diffs), DiffVerdict::Fail, "{diffs:?}");
        let loss = diffs.iter().find(|d| d.series == "train.loss").unwrap();
        assert_eq!(loss.verdict, DiffVerdict::Fail);
        assert!((loss.ratio - 1.5).abs() < 1e-12);

        // Warn band: ×1.2.
        let mut c = a.clone();
        c.observe("train.loss", 2, 0.48).unwrap();
        c.observe("train.val_f1", 2, 0.8).unwrap();
        let diffs = diff_stores(&a, &c);
        assert_eq!(overall(&diffs), DiffVerdict::Warn, "{diffs:?}");
    }

    #[test]
    fn vanished_gated_series_fails_new_series_is_info() {
        let mut a = SeriesStore::new();
        a.observe("train.loss", 0, 1.0).unwrap();
        a.observe("train.val_f1", 0, 0.5).unwrap();
        let mut b = SeriesStore::new();
        b.observe("train.loss", 0, 1.0).unwrap();
        b.observe("extra.metric", 0, 3.0).unwrap();
        let diffs = diff_stores(&a, &b);
        let f1 = diffs.iter().find(|d| d.series == "train.val_f1").unwrap();
        assert_eq!(f1.verdict, DiffVerdict::Fail, "vanished gated series must fail");
        let extra = diffs.iter().find(|d| d.series == "extra.metric").unwrap();
        assert_eq!(extra.verdict, DiffVerdict::Info);
        // Dropped f1 (higher-is-better) to zero: fail.
        let mut z = SeriesStore::new();
        z.observe("train.loss", 0, 1.0).unwrap();
        z.observe("train.val_f1", 0, 0.0).unwrap();
        let f1 = diff_stores(&a, &z).into_iter().find(|d| d.series == "train.val_f1").unwrap();
        assert_eq!(f1.verdict, DiffVerdict::Fail);
    }
}
