//! The lint catalog.
//!
//! Every rule the engine enforces is described here: id, one-line
//! summary, rationale, the paths it is enforced on, and whether a
//! `// qdgnn-analyze: allow(ID, reason = "…")` comment may suppress it.
//! `qdgnn-analyze --self-check` asserts that this table and the
//! implemented rules agree.

/// Static description of one lint rule.
pub struct Rule {
    /// Stable identifier, e.g. `QD002`.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Why the rule exists in this repository.
    pub rationale: &'static str,
    /// Path substrings the rule is enforced on (empty = whole tree).
    pub enforced_paths: &'static [&'static str],
    /// Whether `// qdgnn-analyze: allow(ID, reason = "…")` may suppress it.
    pub suppressible: bool,
}

/// The full catalog, ordered by id.
pub const RULES: &[Rule] = &[
    Rule {
        id: "QD000",
        summary: "suppression comments must carry a written reason",
        rationale: "A suppression without a reason is indistinguishable from \
                    a silenced bug; `allow(QDxxx, reason = \"…\")` keeps the \
                    audit trail in the source.",
        enforced_paths: &[],
        suppressible: false,
    },
    Rule {
        id: "QD002",
        summary: "no f32 == / != comparisons",
        rationale: "Exact float equality silently breaks under reordered \
                    accumulation (parallel matmul tiles) and resume replay; \
                    use tolerances, or suppress with a reason where exact \
                    sentinel values (0.0 sparsity skips) are intended. Not \
                    clippy::float_cmp: that lint exempts comparisons with \
                    zero, the case this rule exists for, and flags tests.",
        enforced_paths: &[],
        suppressible: true,
    },
    Rule {
        id: "QD003",
        summary: "every tape op must have a finite-difference gradient check",
        rationale: "The autograd engine is hand-written; an op whose backward \
                    is never checked against central differences is an \
                    unverified derivative. Enforced by matching enum Op \
                    variants in crates/tensor/src/tape.rs against fd_* tests \
                    in tests/properties.rs.",
        enforced_paths: &["crates/tensor/src/tape.rs"],
        suppressible: true,
    },
    Rule {
        id: "QD005",
        summary: "no nested lock acquisitions or locks held across thread joins",
        rationale: "The parallel trainer and matmul tiles use scoped threads; \
                    a guard held while taking a second lock or while joining \
                    crossbeam::thread::scope is a deadlock seed that only \
                    fires under load.",
        enforced_paths: &[
            "crates/core/src/train.rs",
            "crates/tensor/src/dense.rs",
            "crates/tensor/src/sparse.rs",
            "crates/tensor/src/kernel.rs",
        ],
        suppressible: true,
    },
    Rule {
        id: "QD008",
        summary: "no unbounded blocking primitives in serving code",
        rationale: "The serving engine promises bounded behaviour under \
                    overload and partial failure: every block must carry a \
                    timeout so a stuck worker cannot turn into a stuck \
                    caller. Condvar::wait without a timeout, Receiver::recv, \
                    and bare Pending::wait are banned in favour of the \
                    _timeout variants; where indefinite blocking is the \
                    documented contract (the no-deadline Pending::wait \
                    branch), suppress with a reason. Test modules are \
                    exempt.",
        enforced_paths: &["crates/serve/src/"],
        suppressible: true,
    },
    Rule {
        id: "QD009",
        summary: "no panic reachable from a serving entry point through any \
                  call chain",
        rationale: "Clippy's panic lints stop at the function boundary; a \
                    serving-path entry point (any qdgnn-serve function, OnlineStage::try_*, \
                    predict_scores_batch) that calls a helper which unwraps \
                    two crates away still aborts the whole engine. The \
                    interprocedural pass walks the workspace call graph and \
                    reports the panic site together with one shortest call \
                    chain that reaches it. Resolution is name-based and \
                    over-approximate; suppress at the panic site with the \
                    reason the call can in fact never panic.",
        enforced_paths: &["crates/serve/", "crates/core/", "crates/obs/"],
        suppressible: true,
    },
    Rule {
        id: "QD010",
        summary: "no lock-order inversion anywhere in the workspace",
        rationale: "Two locks taken in opposite orders on two threads deadlock \
                    only under load; the analyzer builds the acquired-after \
                    graph (lock B taken while a guard of A is held, including \
                    through calls) and reports every cycle with both \
                    acquisition sites. The runtime lockcheck feature in the \
                    vendored parking_lot shim enforces the same invariant \
                    under test. Lock identity is name-based; suppress where \
                    two names are provably the same lock or the orders can \
                    never interleave.",
        enforced_paths: &[],
        suppressible: true,
    },
    Rule {
        id: "QD011",
        summary: "no blocking call while holding a lock guard",
        rationale: "wait/recv/recv_timeout/sleep/join executed — directly or \
                    through any callee — while a Mutex/RwLock guard is live \
                    stalls every thread that needs that lock for the full \
                    block duration. Condvar waits intentionally sleep with \
                    the guard (the wait releases it); those sites are the \
                    sanctioned suppressions.",
        enforced_paths: &[],
        suppressible: true,
    },
    Rule {
        id: "QD012",
        summary: "stale suppression: an allow comment that silences nothing \
                  (low severity)",
        rationale: "A suppression that no longer matches any finding is a \
                    burned-down exemption rotting in place: it documents a \
                    hazard that no longer exists and will silently swallow \
                    the next real finding on that line. Delete it, or — for \
                    a suppression kept deliberately (e.g. feature-gated \
                    code) — suppress this rule with a reason.",
        enforced_paths: &[],
        suppressible: true,
    },
    Rule {
        id: "QD013",
        summary: "every metric-name literal must appear in the checked-in \
                  metric catalog",
        rationale: "Dashboards, alerts and the telemetry endpoint key on \
                    metric names; a name passed to counter/gauge/observe/\
                    event/trace/op_timer/span! (or a _with variant) that is \
                    missing from METRIC_NAMES in crates/obs/src/names.rs — \
                    and its human table crates/obs/METRICS.md — drifts out \
                    of every dashboard silently. Labeled series are \
                    catalogued by base name. Test code is exempt, and \
                    dynamically-built names are not statically checkable.",
        enforced_paths: &["crates/"],
        suppressible: true,
    },
];

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_ids_are_sorted_and_unique() {
        let ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn lookup_finds_every_rule() {
        for r in RULES {
            assert!(rule(r.id).is_some());
        }
        assert!(rule("QD999").is_none());
    }
}
