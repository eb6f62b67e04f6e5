//! Metric records and the two output forms: one human line per metric,
//! and the single JSON result line.

/// One measured number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
    /// How many raw samples `value` was computed from.
    pub samples: usize,
}

/// Everything one workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Requests offered to the engine.
    pub attempted: u64,
    /// Requests that errored or were answered wrongly.
    pub failed: u64,
    /// Failed correctness or accounting checks; empty means correct.
    pub problems: Vec<String>,
    /// Metrics a user of the system sees.
    pub end_to_end: Vec<Metric>,
    /// Metrics of single layers (traced runs only).
    pub per_layer: Vec<Metric>,
}

impl Report {
    /// Whether every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
            && self
                .end_to_end
                .iter()
                .chain(&self.per_layer)
                .all(|m| m.value.is_finite())
    }

    /// `workload metric value unit samples`, one line per metric.
    pub fn lines(&self) -> Vec<String> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .map(|m| {
                format!(
                    "{} {} {} {} {}",
                    self.workload, m.name, m.value, m.unit, m.samples
                )
            })
            .collect()
    }
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics
/// selected by `trace` (end-to-end when false, per-layer when true).
/// With several reports the metric names are prefixed `workload/`.
pub fn result_json(reports: &[Report], trace: bool) -> String {
    let prefix = reports.len() > 1;
    let mut metrics = Vec::new();
    for r in reports {
        for m in if trace { &r.per_layer } else { &r.end_to_end } {
            let name = if prefix {
                format!("{}/{}", r.workload, m.name)
            } else {
                m.name.to_string()
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                number(m.value),
                m.unit
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        reports.iter().all(Report::correct),
        reports.iter().map(|r| r.attempted).sum::<u64>(),
        reports.iter().map(|r| r.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

/// The `--out` report: every metric of every workload, with samples and
/// any failed checks.
pub fn full_json(reports: &[Report], seed: u64, seconds: u64) -> String {
    let workloads: Vec<String> = reports
        .iter()
        .map(|r| {
            let metrics: Vec<String> = r
                .end_to_end
                .iter()
                .chain(&r.per_layer)
                .map(|m| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                        m.name,
                        number(m.value),
                        m.unit,
                        m.samples
                    )
                })
                .collect();
            let problems: Vec<String> =
                r.problems.iter().map(|p| format!("{:?}", p)).collect();
            format!(
                "\"{}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"problems\": [{}], \"metrics\": {{{}}}}}",
                r.workload,
                r.correct(),
                r.attempted,
                r.failed,
                problems.join(", "),
                metrics.join(", ")
            )
        })
        .collect();
    format!(
        "{{\"seed\": {seed}, \"seconds\": {seconds}, \"workloads\": {{{}}}}}\n",
        workloads.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(value: f64) -> Report {
        Report {
            workload: "w".into(),
            attempted: 3,
            end_to_end: vec![Metric {
                name: "latency_p50_ms",
                value,
                unit: "ms",
                samples: 3,
            }],
            per_layer: vec![Metric {
                name: "models.forward_us_p50",
                value: 2.0,
                unit: "us",
                samples: 3,
            }],
            ..Report::default()
        }
    }

    #[test]
    fn result_line_carries_the_selected_metrics() {
        let r = report(1.25);
        assert!(r.correct());
        assert_eq!(
            result_json(std::slice::from_ref(&r), false),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(result_json(std::slice::from_ref(&r), true)
            .contains("\"models.forward_us_p50\": {\"value\": 2, \"unit\": \"us\"}"));
        assert!(result_json(&[r.clone(), r], false).contains("\"w/latency_p50_ms\""));
        assert_eq!(report(1.25).lines()[0], "w latency_p50_ms 1.25 ms 3");
    }

    #[test]
    fn a_non_finite_metric_makes_the_run_incorrect() {
        let r = report(f64::NAN);
        assert!(!r.correct());
        assert!(result_json(&[r], false).starts_with("{\"correct\": false"));
    }
}
