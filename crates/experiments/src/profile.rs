//! Run profiles and CLI argument parsing.
//!
//! The `paper` profile replicates §7.1's setup exactly (all 14 small
//! datasets, 350 queries split 150:100:100, 300 epochs, hidden width
//! 128). The `std` and `fast` profiles shrink the compute so every
//! experiment finishes in minutes on a laptop while preserving the
//! comparisons; every table records which profile produced it.

use std::path::PathBuf;

use qdgnn_core::config::ModelConfig;
use qdgnn_core::train::TrainConfig;
use qdgnn_data::{presets, Dataset};

/// Compute budget for an experiment run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Smallest datasets, few epochs (CI / smoke runs).
    Fast,
    /// All small datasets at reduced epochs/width (default).
    Std,
    /// The paper's §7.1.6 settings.
    Paper,
}

impl Profile {
    /// Parses a profile name.
    pub fn parse(s: &str) -> Option<Profile> {
        match s {
            "fast" => Some(Profile::Fast),
            "std" => Some(Profile::Std),
            "paper" => Some(Profile::Paper),
            _ => None,
        }
    }

    /// The profile's display name.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Fast => "fast",
            Profile::Std => "std",
            Profile::Paper => "paper",
        }
    }

    /// `(total, train, val, test)` query counts (§7.1.3–4).
    pub fn query_counts(self) -> (usize, usize, usize, usize) {
        match self {
            Profile::Fast => (120, 60, 30, 30),
            Profile::Std => (210, 90, 60, 60),
            Profile::Paper => (350, 150, 100, 100),
        }
    }

    /// Model hyper-parameters for this profile.
    pub fn model_config(self, seed: u64) -> ModelConfig {
        let hidden = match self {
            Profile::Fast => 48,
            Profile::Std => 64,
            Profile::Paper => 128,
        };
        ModelConfig { hidden, seed, ..ModelConfig::default() }
    }

    /// Training hyper-parameters for this profile.
    pub fn train_config(self, seed: u64) -> TrainConfig {
        let (epochs, validate_every) = match self {
            Profile::Fast => (40, 10),
            Profile::Std => (80, 10),
            Profile::Paper => (300, 10),
        };
        TrainConfig { epochs, validate_every, seed, ..TrainConfig::default() }
    }

    /// The datasets this profile evaluates (column order of Table 2).
    pub fn datasets(self) -> Vec<Dataset> {
        match self {
            Profile::Fast => vec![
                presets::fb_414(),
                presets::fb_686(),
                presets::cornell(),
                presets::texas(),
            ],
            Profile::Std => {
                let mut v = presets::facebook_sets();
                v.extend(presets::webkb_sets());
                v
            }
            Profile::Paper => presets::all_small(),
        }
    }
}

/// Parsed command-line configuration shared by all experiment binaries.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Compute profile.
    pub profile: Profile,
    /// Global seed (query generation, model init).
    pub seed: u64,
    /// Output directory for CSVs.
    pub out_dir: PathBuf,
    /// Optional dataset-name filter (comma-separated, case-insensitive).
    pub dataset_filter: Option<Vec<String>>,
    /// Write the structured metrics stream (JSONL events + final
    /// snapshot) to this path at the end of the run.
    pub metrics_out: Option<PathBuf>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            profile: Profile::Std,
            seed: 7,
            out_dir: PathBuf::from("results"),
            dataset_filter: None,
            metrics_out: None,
        }
    }
}

impl RunConfig {
    /// Parses `std::env::args()`: `--profile P --seed N --out DIR
    /// --datasets a,b,c`. Unknown arguments abort with usage help.
    pub fn from_args() -> RunConfig {
        let mut cfg = RunConfig::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let need_value = |i: usize| -> &str {
                args.get(i + 1).unwrap_or_else(|| {
                    eprintln!("missing value for {}", args[i]);
                    std::process::exit(2);
                })
            };
            match args[i].as_str() {
                "--profile" => {
                    let v = need_value(i);
                    cfg.profile = Profile::parse(v).unwrap_or_else(|| {
                        eprintln!("unknown profile `{v}` (fast|std|paper)");
                        std::process::exit(2);
                    });
                    i += 2;
                }
                "--seed" => {
                    cfg.seed = need_value(i).parse().unwrap_or_else(|_| {
                        eprintln!("bad seed");
                        std::process::exit(2);
                    });
                    i += 2;
                }
                "--out" => {
                    cfg.out_dir = PathBuf::from(need_value(i));
                    i += 2;
                }
                "--datasets" => {
                    cfg.dataset_filter = Some(
                        need_value(i).split(',').map(|s| s.trim().to_lowercase()).collect(),
                    );
                    i += 2;
                }
                "--metrics-out" => {
                    cfg.metrics_out = Some(PathBuf::from(need_value(i)));
                    // Per-span/per-event JSONL only accumulates when a run
                    // asked for a metrics file; snapshots are always free.
                    qdgnn_obs::record_events(true);
                    i += 2;
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: <experiment> [--profile fast|std|paper] [--seed N] \
                         [--out DIR] [--datasets a,b,c] [--metrics-out FILE.jsonl]"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown argument `{other}` (try --help)");
                    std::process::exit(2);
                }
            }
        }
        cfg
    }

    /// The profile's datasets after applying `--datasets`.
    pub fn datasets(&self) -> Vec<Dataset> {
        let mut sets = self.profile.datasets();
        if let Some(filter) = &self.dataset_filter {
            sets.retain(|d| filter.iter().any(|f| d.name.to_lowercase() == *f));
        }
        sets
    }

    /// End-of-run metrics flush, called by every experiment binary:
    /// surfaces non-zero failure counters on stderr and, when
    /// `--metrics-out` was given, writes the JSONL event stream plus the
    /// final snapshot (the format `qdgnn-obs-validate` checks).
    pub fn write_metrics(&self) {
        let snap = qdgnn_obs::snapshot();
        if let Some(failures) = snap.counter("train.checkpoint_write_failures") {
            if failures > 0 {
                eprintln!("warning: {failures} checkpoint write(s) failed during training");
            }
        }
        if let Some(path) = &self.metrics_out {
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    let _ = std::fs::create_dir_all(dir);
                }
            }
            match qdgnn_obs::write_jsonl(path) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("warning: metrics write to {} failed: {e}", path.display())
                }
            }
        }
    }

    /// Banner line printed at the top of every experiment.
    pub fn banner(&self, experiment: &str) -> String {
        format!(
            "[{experiment}] profile={} seed={} datasets={}",
            self.profile.name(),
            self.seed,
            self.datasets().iter().map(|d| d.name.clone()).collect::<Vec<_>>().join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_parsing() {
        assert_eq!(Profile::parse("fast"), Some(Profile::Fast));
        assert_eq!(Profile::parse("paper"), Some(Profile::Paper));
        assert_eq!(Profile::parse("huge"), None);
    }

    #[test]
    fn paper_profile_matches_paper_settings() {
        let p = Profile::Paper;
        assert_eq!(p.query_counts(), (350, 150, 100, 100));
        let mc = p.model_config(1);
        assert_eq!(mc.hidden, 128);
        assert_eq!(mc.layers, 3);
        let tc = p.train_config(1);
        assert_eq!(tc.epochs, 300);
        assert_eq!(p.datasets().len(), 14);
    }

    #[test]
    fn dataset_filter_applies() {
        let cfg = RunConfig {
            dataset_filter: Some(vec!["cornell".into()]),
            profile: Profile::Fast,
            ..Default::default()
        };
        let sets = cfg.datasets();
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].name, "Cornell");
    }
}
