//! `qdgnn-obs-validate` — schema checker for `--metrics-out` JSONL files.
//!
//! Every line must be a well-formed `span`, `event`, `trace` or
//! `snapshot` object, exactly one snapshot is present and final, and the
//! snapshot never records the same base name both as an unlabeled series
//! and as a labeled one (such a collision would render as conflicting
//! Prometheus series). Exits 0 on success, 1 with a diagnostic otherwise.
//! Used by the CI obs job.

use std::process::ExitCode;

use qdgnn_obs::json::{self, Value};
use qdgnn_obs::metrics::MetricsSnapshot;

fn check_span(v: &Value) -> Result<(), String> {
    v.get("name").and_then(Value::as_str).ok_or("span missing string `name`")?;
    match v.get("parent") {
        Some(Value::Null) | Some(Value::Str(_)) => {}
        _ => return Err("span `parent` must be a string or null".into()),
    }
    for key in ["start_us", "dur_us"] {
        let n = v
            .get(key)
            .and_then(Value::as_num)
            .ok_or_else(|| format!("span missing numeric `{key}`"))?;
        if n < 0.0 {
            return Err(format!("span `{key}` is negative"));
        }
    }
    Ok(())
}

fn check_event(v: &Value) -> Result<(), String> {
    v.get("name").and_then(Value::as_str).ok_or("event missing string `name`")?;
    v.get("t_us").and_then(Value::as_num).ok_or("event missing numeric `t_us`")?;
    let fields = v.get("fields").and_then(Value::as_obj).ok_or("event missing `fields` object")?;
    for (k, fv) in fields {
        if fv.as_num().is_none() {
            return Err(format!("event field `{k}` is not a number"));
        }
    }
    Ok(())
}

fn check_trace(v: &Value) -> Result<(), String> {
    v.get("name").and_then(Value::as_str).ok_or("trace missing string `name`")?;
    v.get("t_us").and_then(Value::as_num).ok_or("trace missing numeric `t_us`")?;
    let labels = v.get("labels").and_then(Value::as_obj).ok_or("trace missing `labels` object")?;
    for (k, lv) in labels {
        if lv.as_str().is_none() {
            return Err(format!("trace label `{k}` is not a string"));
        }
    }
    let fields = v.get("fields").and_then(Value::as_obj).ok_or("trace missing `fields` object")?;
    for (k, fv) in fields {
        if fv.as_num().is_none() {
            return Err(format!("trace field `{k}` is not a number"));
        }
    }
    Ok(())
}

/// Rejects snapshots that record a base name both bare (`serve.request`)
/// and labeled (`serve.request{outcome="…"}`): the Prometheus rendering
/// of such a pair mixes labeled and unlabeled samples under one family,
/// which scrapers treat as a conflicting series.
fn check_label_collisions(snap: &MetricsSnapshot) -> Result<(), String> {
    let mut bare: Vec<&str> = Vec::new();
    let mut labeled_bases: Vec<&str> = Vec::new();
    let names = snap
        .counters
        .iter()
        .map(|(n, _)| n)
        .chain(snap.gauges.iter().map(|(n, _)| n))
        .chain(snap.hists.iter().map(|h| &h.name));
    for name in names {
        match name.find('{') {
            Some(at) => labeled_bases.push(&name[..at]),
            None => bare.push(name),
        }
    }
    for base in labeled_bases {
        if bare.contains(&base) {
            return Err(format!(
                "snapshot records `{base}` both as an unlabeled series and as a labeled one"
            ));
        }
    }
    Ok(())
}

fn validate(text: &str) -> Result<(usize, usize, usize, MetricsSnapshot), String> {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        return Err("file is empty".into());
    }
    let mut spans = 0usize;
    let mut events = 0usize;
    let mut traces = 0usize;
    let mut snapshot = None;
    for (i, line) in lines.iter().enumerate() {
        let lineno = i + 1;
        let v = json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let kind = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {lineno}: missing string `type`"))?;
        match kind {
            "span" => {
                check_span(&v).map_err(|e| format!("line {lineno}: {e}"))?;
                spans += 1;
            }
            "event" => {
                check_event(&v).map_err(|e| format!("line {lineno}: {e}"))?;
                events += 1;
            }
            "trace" => {
                check_trace(&v).map_err(|e| format!("line {lineno}: {e}"))?;
                traces += 1;
            }
            "snapshot" => {
                if snapshot.is_some() {
                    return Err(format!("line {lineno}: more than one snapshot"));
                }
                if i != lines.len() - 1 {
                    return Err(format!("line {lineno}: snapshot must be the final line"));
                }
                snapshot = Some(
                    MetricsSnapshot::from_json(line)
                        .map_err(|e| format!("line {lineno}: {e}"))?,
                );
            }
            other => return Err(format!("line {lineno}: unknown type `{other}`")),
        }
    }
    let snapshot = snapshot.ok_or("missing final snapshot line")?;
    check_label_collisions(&snapshot)?;
    Ok((spans, events, traces, snapshot))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (prom, paths): (Vec<&String>, Vec<&String>) =
        args.iter().partition(|a| a.as_str() == "--prometheus");
    if paths.is_empty() {
        eprintln!("usage: qdgnn-obs-validate [--prometheus] <metrics.jsonl>...");
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                ok = false;
                continue;
            }
        };
        match validate(&text) {
            Ok((spans, events, traces, snap)) => {
                println!(
                    "{path}: ok ({spans} spans, {events} events, {traces} traces, {} counters, {} histograms)",
                    snap.counters.len(),
                    snap.hists.len()
                );
                if !prom.is_empty() {
                    print!("{}", snap.to_prometheus());
                }
            }
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::validate;

    #[test]
    fn accepts_well_formed_file() {
        let text = concat!(
            "{\"type\":\"span\",\"name\":\"serve.forward\",\"parent\":null,\"start_us\":1,\"dur_us\":2}\n",
            "{\"type\":\"event\",\"name\":\"train.epoch\",\"t_us\":5,\"fields\":{\"loss\":0.5}}\n",
            "{\"type\":\"trace\",\"name\":\"serve.request\",\"t_us\":9,\"labels\":{\"outcome\":\"answered\"},\"fields\":{\"span_us\":42}}\n",
            "{\"type\":\"snapshot\",\"counters\":{},\"gauges\":{},\"histograms\":{}}\n",
        );
        let (spans, events, traces, _) = validate(text).unwrap();
        assert_eq!((spans, events, traces), (1, 1, 1));
    }

    #[test]
    fn rejects_missing_snapshot() {
        let text = "{\"type\":\"event\",\"name\":\"x\",\"t_us\":0,\"fields\":{}}\n";
        assert!(validate(text).unwrap_err().contains("missing final snapshot"));
    }

    #[test]
    fn rejects_snapshot_not_last() {
        let text = concat!(
            "{\"type\":\"snapshot\",\"counters\":{},\"gauges\":{},\"histograms\":{}}\n",
            "{\"type\":\"event\",\"name\":\"x\",\"t_us\":0,\"fields\":{}}\n",
        );
        assert!(validate(text).unwrap_err().contains("final line"));
    }

    #[test]
    fn rejects_malformed_traces() {
        let snap = "{\"type\":\"snapshot\",\"counters\":{},\"gauges\":{},\"histograms\":{}}\n";
        let no_labels =
            format!("{}{snap}", "{\"type\":\"trace\",\"name\":\"t\",\"t_us\":1,\"fields\":{}}\n");
        assert!(validate(&no_labels).unwrap_err().contains("labels"));
        let bad_label = format!(
            "{}{snap}",
            "{\"type\":\"trace\",\"name\":\"t\",\"t_us\":1,\"labels\":{\"tenant\":3},\"fields\":{}}\n"
        );
        assert!(validate(&bad_label).unwrap_err().contains("not a string"));
        let bad_field = format!(
            "{}{snap}",
            "{\"type\":\"trace\",\"name\":\"t\",\"t_us\":1,\"labels\":{},\"fields\":{\"x\":\"y\"}}\n"
        );
        assert!(validate(&bad_field).unwrap_err().contains("not a number"));
    }

    #[test]
    fn rejects_labeled_unlabeled_collision_in_snapshot() {
        let text = concat!(
            "{\"type\":\"snapshot\",\"counters\":{\"serve.request\":1,",
            "\"serve.request{outcome=\\\"answered\\\"}\":1},\"gauges\":{},\"histograms\":{}}\n",
        );
        let err = validate(text).unwrap_err();
        assert!(err.contains("both as an unlabeled series"), "{err}");
        let ok = concat!(
            "{\"type\":\"snapshot\",\"counters\":{\"serve.requests_total\":2,",
            "\"serve.request{outcome=\\\"answered\\\"}\":1},\"gauges\":{},\"histograms\":{}}\n",
        );
        assert!(validate(ok).is_ok());
    }

    #[test]
    fn rejects_bad_span_fields() {
        let text = concat!(
            "{\"type\":\"span\",\"name\":\"s\",\"parent\":7,\"start_us\":1,\"dur_us\":2}\n",
            "{\"type\":\"snapshot\",\"counters\":{},\"gauges\":{},\"histograms\":{}}\n",
        );
        assert!(validate(text).unwrap_err().contains("parent"));
    }
}
