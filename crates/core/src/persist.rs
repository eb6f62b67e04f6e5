//! Trained-model and training-checkpoint persistence.
//!
//! The paper's framework trains once, offline, and serves queries online
//! indefinitely — which requires putting trained weights on disk. The
//! format is line-oriented text with f32 values serialized as exact IEEE
//! bit patterns (hex), so a save/load round trip is bit-identical:
//!
//! ```text
//! qdgnn-model v1
//! model <name>
//! gamma <hex-f32>
//! params <count>
//! param <name> <rows> <cols>
//! <hex values, one row per line>
//! …
//! bns <count>
//! bn <dim>
//! <running-mean row>
//! <running-var row>
//! …
//! ```
//!
//! Crash-resume checkpoints (`qdgnn-checkpoint v1`) extend the same block
//! vocabulary with the training loop's mutable state: epoch counter,
//! learning rate, Adam moments (`adam-m` / `adam-v` sections), loss and
//! validation histories, and the best-on-validation snapshot. Both
//! writers are atomic (write to a `.tmp` sibling, then rename), and both
//! loaders validate the entire file against the target model before
//! committing anything, so a corrupt or truncated file can never leave a
//! half-restored model behind.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use qdgnn_tensor::{AdamState, Dense};

use crate::error::{QdgnnError, Result};
use crate::models::{Checkpoint, CsModel};
use crate::train::ResumeState;

/// Saves a trained model's parameters, batch-norm running statistics and
/// selected threshold γ.
///
/// The write is atomic: content goes to a `<path>.tmp` sibling which is
/// renamed over `path` only after a successful flush, so a crash mid-save
/// can never leave a half-written model where a good one used to be.
pub fn save_model(path: impl AsRef<Path>, model: &dyn CsModel, gamma: f32) -> Result<()> {
    write_atomic(path.as_ref(), |w| {
        writeln!(w, "qdgnn-model v1")?;
        writeln!(w, "model {}", model.name())?;
        writeln!(w, "gamma {:08x}", gamma.to_bits())?;
        write_params_section(w, model.store().len(), model.store().iter().map(|(_, n, v)| (n, &**v)))?;
        write_bns_section(
            w,
            model.bns().len(),
            model.bns().iter().map(|bn| (bn.running_mean(), bn.running_var())),
        )?;
        Ok(())
    })
}

/// Restores a model saved by [`save_model`] into `model` (which must have
/// been constructed with the same configuration and graph dimensions).
/// Returns the stored γ.
///
/// # Errors
/// Returns [`QdgnnError::InvalidData`] when the file does not match the
/// model's layout (wrong architecture, different graph dimensions,
/// truncated or corrupt file, trailing garbage), and [`QdgnnError::Io`]
/// for environment failures. Never panics, whatever the file contains;
/// `model` is only modified after the whole file validates.
pub fn load_model(path: impl AsRef<Path>, model: &mut dyn CsModel) -> Result<f32> {
    let reader = BufReader::new(File::open(path)?);
    let mut lines = reader.lines();
    if next_line(&mut lines)?.trim() != "qdgnn-model v1" {
        return Err(bad("not a qdgnn model file"));
    }
    check_model_name(&next_line(&mut lines)?, model)?;
    let gamma = parse_gamma(&next_line(&mut lines)?)?;
    let snapshot = read_params_section(&mut lines, model, "params ")?;
    let bn_stats = read_bns_section(&mut lines, model)?;
    expect_eof(&mut lines)?;

    // All validated: commit.
    commit_weights(model, &snapshot, bn_stats);
    Ok(gamma)
}

/// Writes a crash-resume training checkpoint: the model's current weights
/// plus the full mutable state of the training loop. Atomic, like
/// [`save_model`].
pub(crate) fn save_train_checkpoint(
    path: impl AsRef<Path>,
    model: &dyn CsModel,
    state: &ResumeState,
) -> Result<()> {
    write_atomic(path.as_ref(), |w| {
        writeln!(w, "qdgnn-checkpoint v1")?;
        writeln!(w, "model {}", model.name())?;
        writeln!(w, "epochs-done {}", state.epochs_done)?;
        writeln!(w, "lr {:08x}", state.lr.to_bits())?;
        writeln!(w, "recoveries {}", state.recoveries)?;
        writeln!(w, "skipped {}", state.skipped_steps)?;
        writeln!(w, "stale {}", state.stale_validations)?;
        writeln!(w, "adam-step {}", state.adam.step)?;
        writeln!(w, "best-f1 {:016x}", state.best.0.to_bits())?;
        writeln!(w, "best-gamma {:08x}", state.best.1.to_bits())?;
        writeln!(w, "loss-history {}", state.loss_history.len())?;
        if !state.loss_history.is_empty() {
            writeln!(w, "{}", hex_row(&state.loss_history))?;
        }
        writeln!(w, "val-history {}", state.val_history.len())?;
        for (epoch, f1) in &state.val_history {
            writeln!(w, "{epoch} {:016x}", f1.to_bits())?;
        }
        write_params_section(w, model.store().len(), model.store().iter().map(|(_, n, v)| (n, &**v)))?;
        write_bns_section(
            w,
            model.bns().len(),
            model.bns().iter().map(|bn| (bn.running_mean(), bn.running_var())),
        )?;
        writeln!(w, "adam-m {}", state.adam.m.len())?;
        for (m, (_, name, _)) in state.adam.m.iter().zip(model.store().iter()) {
            write_param_block(w, name, m)?;
        }
        writeln!(w, "adam-v {}", state.adam.v.len())?;
        for (v, (_, name, _)) in state.adam.v.iter().zip(model.store().iter()) {
            write_param_block(w, name, v)?;
        }
        match &state.best.2 {
            None => writeln!(w, "best 0")?,
            Some(ckpt) => {
                writeln!(w, "best 1")?;
                write_params_section(
                    w,
                    ckpt.params().len(),
                    model.store().iter().map(|(_, n, _)| n).zip(ckpt.params().iter()),
                )?;
                write_bns_section(
                    w,
                    ckpt.bn_running().len(),
                    ckpt.bn_running().iter().map(|(m, v)| (m, v)),
                )?;
            }
        }
        Ok(())
    })
}

/// Loads a checkpoint written by [`save_train_checkpoint`]: restores the
/// in-flight weights into `model` and returns the training-loop state.
/// Like [`load_model`], everything is validated against the target model
/// before anything is committed, and no input can cause a panic.
pub(crate) fn load_train_checkpoint(
    path: impl AsRef<Path>,
    model: &mut dyn CsModel,
) -> Result<ResumeState> {
    let reader = BufReader::new(File::open(path)?);
    let mut lines = reader.lines();
    if next_line(&mut lines)?.trim() != "qdgnn-checkpoint v1" {
        return Err(bad("not a qdgnn checkpoint file"));
    }
    check_model_name(&next_line(&mut lines)?, model)?;
    let epochs_done = parse_count(&next_line(&mut lines)?, "epochs-done ")?;
    let lr = parse_hex_f32(
        next_line(&mut lines)?.strip_prefix("lr ").ok_or_else(|| bad("missing lr"))?,
    )?;
    if !lr.is_finite() || lr <= 0.0 {
        return Err(bad("checkpoint learning rate must be finite and positive"));
    }
    let recoveries = parse_count(&next_line(&mut lines)?, "recoveries ")?;
    let skipped_steps = parse_count(&next_line(&mut lines)?, "skipped ")?;
    let stale_validations = parse_count(&next_line(&mut lines)?, "stale ")?;
    let adam_step = parse_count(&next_line(&mut lines)?, "adam-step ")? as u64;
    let best_f1 = parse_hex_f64(
        next_line(&mut lines)?.strip_prefix("best-f1 ").ok_or_else(|| bad("missing best-f1"))?,
    )?;
    let best_gamma = parse_hex_f32(
        next_line(&mut lines)?
            .strip_prefix("best-gamma ")
            .ok_or_else(|| bad("missing best-gamma"))?,
    )?;
    let loss_len = parse_count(&next_line(&mut lines)?, "loss-history ")?;
    let mut loss_history = Vec::with_capacity(loss_len);
    if loss_len > 0 {
        parse_hex_row(&next_line(&mut lines)?, loss_len, &mut loss_history)?;
    }
    let val_len = parse_count(&next_line(&mut lines)?, "val-history ")?;
    let mut val_history = Vec::with_capacity(val_len);
    for _ in 0..val_len {
        let line = next_line(&mut lines)?;
        let mut parts = line.split_whitespace();
        let epoch: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad val-history epoch"))?;
        let f1 = parse_hex_f64(parts.next().ok_or_else(|| bad("missing val-history f1"))?)?;
        if parts.next().is_some() {
            return Err(bad("trailing tokens in val-history entry"));
        }
        val_history.push((epoch, f1));
    }
    let current = read_params_section(&mut lines, model, "params ")?;
    let current_bns = read_bns_section(&mut lines, model)?;
    let adam_m = read_params_section(&mut lines, model, "adam-m ")?;
    let adam_v = read_params_section(&mut lines, model, "adam-v ")?;
    let best_flag = parse_count(&next_line(&mut lines)?, "best ")?;
    let best_ckpt = match best_flag {
        0 => None,
        1 => {
            let params = read_params_section(&mut lines, model, "params ")?;
            let bns = read_bns_section(&mut lines, model)?;
            Some(Checkpoint::from_parts(params, bns))
        }
        _ => return Err(bad("best flag must be 0 or 1")),
    };
    expect_eof(&mut lines)?;

    // All validated: commit.
    commit_weights(model, &current, current_bns);
    Ok(ResumeState {
        epochs_done,
        lr,
        adam: AdamState { step: adam_step, m: adam_m, v: adam_v },
        recoveries,
        skipped_steps,
        stale_validations,
        loss_history,
        val_history,
        best: (best_f1, best_gamma, best_ckpt),
    })
}

/// Runs `body` against a buffered writer on `<path>.tmp`, then renames the
/// finished file over `path`.
fn write_atomic(path: &Path, body: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>) -> Result<()> {
    let tmp = tmp_sibling(path);
    {
        let mut w = BufWriter::new(File::create(&tmp)?);
        body(&mut w)?;
        w.flush()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Temp-file sibling used for atomic writes.
pub(crate) fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

fn write_param_block(w: &mut impl Write, name: &str, value: &Dense) -> io::Result<()> {
    writeln!(w, "param {} {} {}", name, value.rows(), value.cols())?;
    for r in 0..value.rows() {
        writeln!(w, "{}", hex_row(value.row(r)))?;
    }
    Ok(())
}

fn write_params_section<'a>(
    w: &mut impl Write,
    count: usize,
    named: impl Iterator<Item = (&'a str, &'a Dense)>,
) -> io::Result<()> {
    writeln!(w, "params {count}")?;
    for (name, value) in named {
        write_param_block(w, name, value)?;
    }
    Ok(())
}

fn write_bns_section<'a>(
    w: &mut impl Write,
    count: usize,
    bns: impl Iterator<Item = (&'a Dense, &'a Dense)>,
) -> io::Result<()> {
    writeln!(w, "bns {count}")?;
    for (mean, var) in bns {
        writeln!(w, "bn {}", mean.len())?;
        writeln!(w, "{}", hex_row(mean.as_slice()))?;
        writeln!(w, "{}", hex_row(var.as_slice()))?;
    }
    Ok(())
}

/// Reads a `<keyword><count>` header plus `count` parameter blocks,
/// validating the count and every shape against `model`'s store.
fn read_params_section(
    lines: &mut impl Iterator<Item = io::Result<String>>,
    model: &dyn CsModel,
    keyword: &str,
) -> Result<Vec<Dense>> {
    let count = parse_count(&next_line(lines)?, keyword)?;
    if count != model.store().len() {
        return Err(bad(&format!(
            "parameter count mismatch: file has {count}, model has {}",
            model.store().len()
        )));
    }
    let shapes: Vec<(usize, usize)> = model.store().iter().map(|(_, _, v)| v.shape()).collect();
    let mut out = Vec::with_capacity(count);
    for (i, &(erows, ecols)) in shapes.iter().enumerate() {
        let header = next_line(lines)?;
        let mut parts = header.split_whitespace();
        if parts.next() != Some("param") {
            return Err(bad("expected `param` header"));
        }
        let _name = parts.next().ok_or_else(|| bad("missing param name"))?;
        let rows: usize =
            parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad("bad param rows"))?;
        let cols: usize =
            parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad("bad param cols"))?;
        if (rows, cols) != (erows, ecols) {
            return Err(bad(&format!(
                "parameter {i} shape mismatch: file {rows}x{cols}, model {erows}x{ecols}"
            )));
        }
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows {
            parse_hex_row(&next_line(lines)?, cols, &mut data)?;
        }
        out.push(Dense::from_vec(rows, cols, data));
    }
    Ok(out)
}

/// Reads a `bns <count>` header plus per-layer `(mean, var)` rows,
/// validating count and widths against `model`'s batch-norm table.
fn read_bns_section(
    lines: &mut impl Iterator<Item = io::Result<String>>,
    model: &dyn CsModel,
) -> Result<Vec<(Dense, Dense)>> {
    let count = parse_count(&next_line(lines)?, "bns ")?;
    if count != model.bns().len() {
        return Err(bad("batch-norm count mismatch"));
    }
    let mut out = Vec::with_capacity(count);
    for bn in model.bns() {
        let header = next_line(lines)?;
        let dim = parse_count(&header, "bn ")?;
        if dim != bn.dim() {
            return Err(bad("batch-norm width mismatch"));
        }
        let mut mean = Vec::with_capacity(dim);
        parse_hex_row(&next_line(lines)?, dim, &mut mean)?;
        let mut var = Vec::with_capacity(dim);
        parse_hex_row(&next_line(lines)?, dim, &mut var)?;
        out.push((Dense::from_vec(1, dim, mean), Dense::from_vec(1, dim, var)));
    }
    Ok(out)
}

fn commit_weights(model: &mut dyn CsModel, snapshot: &[Dense], bn_stats: Vec<(Dense, Dense)>) {
    model.store_mut().restore(snapshot);
    for (bn, (mean, var)) in model.bns_mut().iter_mut().zip(bn_stats) {
        bn.set_running(mean, var);
    }
}

fn check_model_name(line: &str, model: &dyn CsModel) -> Result<()> {
    let stored = line.strip_prefix("model ").ok_or_else(|| bad("missing model name"))?;
    if stored != model.name() {
        return Err(bad(&format!(
            "model type mismatch: file has `{stored}`, target is `{}`",
            model.name()
        )));
    }
    Ok(())
}

/// Pulls the next line of a model/checkpoint file, mapping EOF and
/// undecodable bytes to [`QdgnnError::InvalidData`].
pub(crate) fn next_line(lines: &mut impl Iterator<Item = io::Result<String>>) -> Result<String> {
    match lines.next() {
        Some(Ok(line)) => Ok(line),
        Some(Err(e)) => Err(e.into()),
        None => Err(bad("unexpected end of file")),
    }
}

/// Rejects trailing content after the last expected block: garbage there
/// means the file is not what the header promised.
pub(crate) fn expect_eof(lines: &mut impl Iterator<Item = io::Result<String>>) -> Result<()> {
    for line in lines {
        if !line?.trim().is_empty() {
            return Err(bad("trailing data after the final block"));
        }
    }
    Ok(())
}

/// Parses a `gamma <hex-f32>` line, rejecting non-finite thresholds (a
/// NaN/Inf γ would make the BFS admit nothing or everything).
pub(crate) fn parse_gamma(line: &str) -> Result<f32> {
    let gamma = parse_hex_f32(line.strip_prefix("gamma ").ok_or_else(|| bad("missing gamma"))?)?;
    if !gamma.is_finite() {
        return Err(bad("non-finite gamma"));
    }
    Ok(gamma)
}

fn parse_count(line: &str, keyword: &str) -> Result<usize> {
    line.strip_prefix(keyword)
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| bad(&format!("missing or malformed `{}` line", keyword.trim_end())))
}

fn parse_hex_f32(token: &str) -> Result<f32> {
    u32::from_str_radix(token.trim(), 16)
        .map(f32::from_bits)
        .map_err(|_| bad("bad hex f32 encoding"))
}

fn parse_hex_f64(token: &str) -> Result<f64> {
    u64::from_str_radix(token.trim(), 16)
        .map(f64::from_bits)
        .map_err(|_| bad("bad hex f64 encoding"))
}

fn hex_row(values: &[f32]) -> String {
    let mut s = String::with_capacity(values.len() * 9);
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(&format!("{:08x}", v.to_bits()));
    }
    s
}

pub(crate) fn parse_hex_row(line: &str, expected: usize, out: &mut Vec<f32>) -> Result<()> {
    let before = out.len();
    for token in line.split_whitespace() {
        let bits = u32::from_str_radix(token, 16).map_err(|_| bad("bad hex value"))?;
        out.push(f32::from_bits(bits));
    }
    if out.len() - before != expected {
        return Err(bad(&format!(
            "row width mismatch: expected {expected}, got {}",
            out.len() - before
        )));
    }
    Ok(())
}

fn bad(msg: &str) -> QdgnnError {
    QdgnnError::invalid(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::inputs::{GraphTensors, QueryVectors};
    use crate::models::{predict_scores, AqdGnn, QdGnn};
    use qdgnn_data::presets;
    use qdgnn_graph::attributed::AdjNorm;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("qdgnn_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let model = AqdGnn::new(ModelConfig::fast(), t.d);
        let q = QueryVectors::encode(t.n, t.d, &[0], &[1]);
        let before = predict_scores(&model, &t, &q);

        let path = tmp("aqd.model");
        save_model(&path, &model, 0.55).unwrap();
        let mut fresh = AqdGnn::new(ModelConfig { seed: 999, ..ModelConfig::fast() }, t.d);
        let gamma = load_model(&path, &mut fresh).unwrap();
        assert_eq!(gamma, 0.55);
        let after = predict_scores(&fresh, &t, &q);
        assert_eq!(before, after, "restored model must predict identically");
    }

    #[test]
    fn wrong_model_type_is_rejected() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let aqd = AqdGnn::new(ModelConfig::fast(), t.d);
        let path = tmp("typed.model");
        save_model(&path, &aqd, 0.5).unwrap();
        let mut qd = QdGnn::new(ModelConfig::fast(), t.d);
        let err = load_model(&path, &mut qd).unwrap_err();
        assert!(matches!(err, QdgnnError::InvalidData(_)), "got {err}");
        // Typed errors still translate to the conventional io kind.
        assert_eq!(io::Error::from(err).kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn wrong_dimensions_are_rejected() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let model = QdGnn::new(ModelConfig::fast(), t.d);
        let path = tmp("dims.model");
        save_model(&path, &model, 0.5).unwrap();
        // Different attribute vocabulary → different first-layer shapes.
        let mut other = QdGnn::new(ModelConfig::fast(), t.d + 3);
        assert!(load_model(&path, &mut other).is_err());
    }

    #[test]
    fn corrupt_file_is_rejected() {
        let path = tmp("corrupt.model");
        std::fs::write(&path, "qdgnn-model v1\nmodel QD-GNN\ngamma zz\n").unwrap();
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let mut model = QdGnn::new(ModelConfig::fast(), t.d);
        assert!(load_model(&path, &mut model).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let model = QdGnn::new(ModelConfig::fast(), t.d);
        let path = tmp("trailing.model");
        save_model(&path, &model, 0.5).unwrap();
        let mut content = std::fs::read_to_string(&path).unwrap();
        content.push_str("deadbeef deadbeef\n");
        std::fs::write(&path, content).unwrap();
        let mut fresh = QdGnn::new(ModelConfig::fast(), t.d);
        let err = load_model(&path, &mut fresh).unwrap_err();
        assert!(matches!(err, QdgnnError::InvalidData(_)), "got {err}");
    }

    #[test]
    fn wrong_declared_param_count_is_rejected() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let model = QdGnn::new(ModelConfig::fast(), t.d);
        let path = tmp("count.model");
        save_model(&path, &model, 0.5).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let mangled: String = content
            .lines()
            .map(|l| {
                if l.starts_with("params ") {
                    "params 1\n".to_string()
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        std::fs::write(&path, mangled).unwrap();
        let mut fresh = QdGnn::new(ModelConfig::fast(), t.d);
        assert!(matches!(
            load_model(&path, &mut fresh),
            Err(QdgnnError::InvalidData(_))
        ));
    }

    #[test]
    fn non_finite_gamma_is_rejected() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let model = QdGnn::new(ModelConfig::fast(), t.d);
        let path = tmp("nan_gamma.model");
        save_model(&path, &model, 0.5).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let mangled: String = content
            .lines()
            .map(|l| {
                if l.starts_with("gamma ") {
                    format!("gamma {:08x}\n", f32::NAN.to_bits())
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        std::fs::write(&path, mangled).unwrap();
        let mut fresh = QdGnn::new(ModelConfig::fast(), t.d);
        assert!(matches!(
            load_model(&path, &mut fresh),
            Err(QdgnnError::InvalidData(_))
        ));
    }

    #[test]
    fn save_is_atomic_no_tmp_left_behind() {
        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let model = QdGnn::new(ModelConfig::fast(), t.d);
        let path = tmp("atomic.model");
        save_model(&path, &model, 0.5).unwrap();
        assert!(path.exists());
        assert!(!tmp_sibling(&path).exists(), "tmp sibling must be renamed away");
    }

    #[test]
    fn checkpoint_round_trip_preserves_training_state() {
        use qdgnn_tensor::{Adam, AdamConfig};

        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let model = QdGnn::new(ModelConfig::fast(), t.d);
        let opt = Adam::new(AdamConfig::default(), model.store());
        let state = ResumeState {
            epochs_done: 17,
            lr: 5e-4,
            adam: opt.state(),
            recoveries: 2,
            skipped_steps: 3,
            stale_validations: 1,
            loss_history: vec![0.7, 0.5, 0.4],
            val_history: vec![(10, 0.61), (17, 0.66)],
            best: (0.66, 0.45, Some(model.checkpoint())),
        };
        let path = tmp("resume.ckpt");
        save_train_checkpoint(&path, &model, &state).unwrap();

        let mut fresh = QdGnn::new(ModelConfig { seed: 321, ..ModelConfig::fast() }, t.d);
        let loaded = load_train_checkpoint(&path, &mut fresh).unwrap();
        assert_eq!(loaded.epochs_done, 17);
        assert_eq!(loaded.lr, 5e-4);
        assert_eq!(loaded.recoveries, 2);
        assert_eq!(loaded.skipped_steps, 3);
        assert_eq!(loaded.stale_validations, 1);
        assert_eq!(loaded.loss_history, state.loss_history);
        assert_eq!(loaded.val_history, state.val_history);
        assert_eq!(loaded.best.0, 0.66);
        assert_eq!(loaded.best.1, 0.45);
        assert!(loaded.best.2.is_some());
        let q = QueryVectors::encode(t.n, t.d, &[0], &[]);
        assert_eq!(
            predict_scores(&fresh, &t, &q),
            predict_scores(&model, &t, &q),
            "restored in-flight weights must predict identically"
        );
    }

    #[test]
    fn checkpoint_corruption_is_rejected_not_fatal() {
        use qdgnn_tensor::{Adam, AdamConfig};

        let data = presets::toy();
        let t = GraphTensors::new(&data.graph, AdjNorm::GcnSym, 100);
        let model = QdGnn::new(ModelConfig::fast(), t.d);
        let opt = Adam::new(AdamConfig::default(), model.store());
        let state = ResumeState {
            epochs_done: 5,
            lr: 1e-3,
            adam: opt.state(),
            recoveries: 0,
            skipped_steps: 0,
            stale_validations: 0,
            loss_history: vec![0.7],
            val_history: vec![],
            best: (-1.0, 0.5, None),
        };
        let path = tmp("corrupt.ckpt");
        save_train_checkpoint(&path, &model, &state).unwrap();
        let good = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = good.lines().collect();
        // Truncate at several depths, including mid-Adam-moments.
        for cut in [1, 3, lines.len() / 2, lines.len() - 1] {
            let truncated: String = lines[..cut].iter().map(|l| format!("{l}\n")).collect();
            std::fs::write(&path, truncated).unwrap();
            let mut fresh = QdGnn::new(ModelConfig::fast(), t.d);
            assert!(
                load_train_checkpoint(&path, &mut fresh).is_err(),
                "truncation at line {cut} must be rejected"
            );
        }
    }
}
