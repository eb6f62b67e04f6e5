//! The checked-in metric-name catalog.
//!
//! Every metric, span, event and trace name the workspace records must
//! appear here and in the human-readable companion table
//! `crates/obs/METRICS.md` — the analyzer rule QD013 rejects any name
//! literal passed to `counter`/`gauge`/`observe`/`event`/`trace`/
//! `op_timer`/`span!` (and their `_with` variants) that this catalog
//! does not list, so dashboards scraping `/metrics` can never silently
//! drift from the code. Labeled series are catalogued by their base
//! name (`serve.request`, not `serve.request{outcome="…"}`).
//!
//! This module is compiled unconditionally (no feature gate): the
//! analyzer and the docs test need it in every build.

/// Every catalogued metric/span/event/trace base name, sorted.
pub const METRIC_NAMES: &[&str] = &[
    "identify.attr_lists",
    "identify.candidates",
    "mem.alloc_bytes",
    "mem.freed_bytes",
    "mem.live_bytes",
    "mem.peak_bytes",
    "obs.events_dropped",
    "obs.labels_dropped",
    "serve.batch_size",
    "serve.bfs",
    "serve.breaker_trips",
    "serve.candidate_vertices",
    "serve.community_size",
    "serve.degraded_mode",
    "serve.encode",
    "serve.extract",
    "serve.flush",
    "serve.forward",
    "serve.queries",
    "serve.query",
    "serve.queue_depth",
    "serve.queue_wait",
    "serve.request",
    "serve.request_span",
    "serve.stats.breaker_trips",
    "serve.stats.queue_depth",
    "serve.stats.shed_admission",
    "serve.stats.shed_deadline",
    "serve.stats.worker_panics",
    "serve.tenant_request",
    "serve.worker_panics",
    "tensor.add",
    "tensor.add_row",
    "tensor.add_scalar",
    "tensor.backward",
    "tensor.bce_with_logits",
    "tensor.col_mean",
    "tensor.concat_cols",
    "tensor.hadamard",
    "tensor.leaf.bytes",
    "tensor.matmul",
    "tensor.matmul.bytes",
    "tensor.mean_all",
    "tensor.mul_col",
    "tensor.mul_row",
    "tensor.relu",
    "tensor.rsqrt",
    "tensor.scale",
    "tensor.sigmoid",
    "tensor.spmm",
    "tensor.sub",
    "tensor.tape_retained_bytes",
    "train.checkpoint_write",
    "train.checkpoint_write_failed",
    "train.checkpoint_write_failures",
    "train.divergence_rollback",
    "train.epoch",
    "train.epoch_time",
    "train.grad_norm",
    "train.loss",
    "train.lr",
    "train.report.best_gamma",
    "train.report.best_val_f1",
    "train.report.checkpoint_write_failures",
    "train.report.diverged",
    "train.report.epochs_run",
    "train.report.recoveries",
    "train.report.skipped_steps",
    "train.report.train_seconds",
    "train.step_skipped",
    "train.validate",
];

/// Whether `name` (a base name, without any `{label…}` block) is in the
/// catalog. Binary search: the table is sorted, and the unit test below
/// pins that.
pub fn is_catalogued(name: &str) -> bool {
    METRIC_NAMES.binary_search(&name).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_sorted_and_unique() {
        let mut sorted = METRIC_NAMES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(METRIC_NAMES, sorted.as_slice());
    }

    #[test]
    fn lookup_finds_every_name_and_rejects_strangers() {
        for n in METRIC_NAMES {
            assert!(is_catalogued(n), "{n}");
        }
        assert!(!is_catalogued("serve.not_a_metric"));
        assert!(!is_catalogued("serve.request{outcome=\"answered\"}"), "base names only");
    }

    /// The human table and the const table must list exactly the same
    /// names: METRICS.md rows are `| \`name\` | kind | description |`.
    #[test]
    fn metrics_md_agrees_with_const_table() {
        let md = include_str!("../METRICS.md");
        let mut md_names: Vec<&str> = md
            .lines()
            .filter_map(|l| {
                let rest = l.strip_prefix("| `")?;
                rest.split('`').next()
            })
            .collect();
        md_names.sort_unstable();
        assert_eq!(
            md_names, METRIC_NAMES,
            "crates/obs/METRICS.md and names::METRIC_NAMES must list the same names"
        );
    }
}
