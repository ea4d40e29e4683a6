//! Model persistence: save a trained CPGAN to disk and reload it.
//!
//! The snapshot stores the configuration, every trainable tensor in
//! registration order, and the cached whole-graph simulation state, so a
//! reloaded model generates identically to the original.

use crate::model::CpGan;
use crate::CpGanConfig;
use cpgan_nn::Matrix;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// On-disk snapshot of a (possibly trained) CPGAN.
#[derive(Serialize, Deserialize)]
pub struct ModelSnapshot {
    /// Snapshot format version.
    pub version: u32,
    /// The configuration the model was built with.
    pub config: CpGanConfig,
    /// Every trainable tensor, in `ParamStore` registration order.
    pub parameters: Vec<Matrix>,
    /// Cached simulation state `(mu, sigma, degrees)` if the model was
    /// trained.
    pub sim_state: Option<(Matrix, Matrix, Vec<f64>)>,
}

/// Current snapshot version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Errors from saving/loading snapshots.
#[derive(Debug)]
pub enum PersistError {
    /// I/O failure.
    Io(std::io::Error),
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
    /// The snapshot does not fit the model (version or shape mismatch).
    Incompatible(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Json(e) => write!(f, "serialization error: {e}"),
            PersistError::Incompatible(m) => write!(f, "incompatible snapshot: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Json(e)
    }
}

/// Checks a snapshot's simulation state before generation relies on it:
/// one degree per latent row, a `1 x cols` sigma row, and degrees that are
/// finite, non-negative whole numbers. Generation's node draw is exact only
/// for whole-number weights, and its degree budgets need one per node.
fn check_sim_state(mu: &Matrix, sigma: &Matrix, degrees: &[f64]) -> Result<(), String> {
    if degrees.len() != mu.rows() {
        return Err(format!(
            "simulation state has {} degrees for {} latent rows",
            degrees.len(),
            mu.rows()
        ));
    }
    if sigma.shape() != (1, mu.cols()) {
        return Err(format!(
            "simulation state sigma is {}x{}, expected 1x{}",
            sigma.rows(),
            sigma.cols(),
            mu.cols()
        ));
    }
    // `fract` of a finite non-negative number lies in [0, 1), and is NaN
    // for infinities; NaN degrees fail the first test.
    let whole = |d: f64| d >= 0.0 && d.fract() <= 0.0;
    if let Some(v) = degrees.iter().position(|&d| !whole(d)) {
        return Err(format!(
            "simulation state degree {} of node {v} is not a non-negative whole number",
            degrees[v]
        ));
    }
    // Below 2^53 every partial sum of whole numbers is an exact f64.
    if degrees.iter().sum::<f64>() >= 9_007_199_254_740_992.0 {
        return Err("simulation state degrees sum to 2^53 or more".to_string());
    }
    Ok(())
}

impl CpGan {
    /// Serializes the model to a snapshot.
    pub fn snapshot(&self) -> ModelSnapshot {
        ModelSnapshot {
            version: SNAPSHOT_VERSION,
            config: self.config().clone(),
            parameters: self.params().export_values(),
            sim_state: self.sim_state_raw(),
        }
    }

    /// Rebuilds a model from a snapshot.
    pub fn from_snapshot(snap: ModelSnapshot) -> Result<CpGan, PersistError> {
        if snap.version != SNAPSHOT_VERSION {
            return Err(PersistError::Incompatible(format!(
                "snapshot version {} (supported: {SNAPSHOT_VERSION})",
                snap.version
            )));
        }
        let mut model = CpGan::new(snap.config);
        model
            .params()
            .import_values(snap.parameters)
            .map_err(PersistError::Incompatible)?;
        if let Some((mu, sigma, degrees)) = &snap.sim_state {
            check_sim_state(mu, sigma, degrees).map_err(PersistError::Incompatible)?;
        }
        model.set_sim_state_raw(snap.sim_state);
        Ok(model)
    }

    /// Saves the model as JSON at `path`.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), PersistError> {
        let file = std::io::BufWriter::new(std::fs::File::create(path)?);
        serde_json::to_writer(file, &self.snapshot())?;
        Ok(())
    }

    /// Loads a model saved by [`save`](Self::save).
    pub fn load<P: AsRef<Path>>(path: P) -> Result<CpGan, PersistError> {
        let file = std::io::BufReader::new(std::fs::File::open(path)?);
        let snap: ModelSnapshot = serde_json::from_reader(file)?;
        CpGan::from_snapshot(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpgan_graph::Graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_graph() -> Graph {
        let mut edges = Vec::new();
        for c in 0..3u32 {
            let base = c * 12;
            for a in 0..12u32 {
                for b in (a + 1)..12 {
                    if (a + b) % 2 == 0 {
                        edges.push((base + a, base + b));
                    }
                }
            }
            edges.push((base, (base + 12) % 36));
        }
        Graph::from_edges(36, edges).unwrap()
    }

    #[test]
    fn save_load_round_trip_generates_identically() {
        let g = small_graph();
        let mut model = CpGan::new(CpGanConfig {
            epochs: 8,
            sample_size: 36,
            ..CpGanConfig::tiny()
        });
        model.fit(&g);
        let dir = std::env::temp_dir().join("cpgan_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        model.save(&path).unwrap();
        let loaded = CpGan::load(&path).unwrap();
        let mut r1 = StdRng::seed_from_u64(3);
        let mut r2 = StdRng::seed_from_u64(3);
        let g1 = model.generate(g.n(), g.m(), &mut r1);
        let g2 = loaded.generate(g.n(), g.m(), &mut r2);
        assert_eq!(g1, g2, "reloaded model must generate identically");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_load_save_is_bitwise_stable() {
        let g = small_graph();
        let mut model = CpGan::new(CpGanConfig {
            epochs: 4,
            sample_size: 36,
            ..CpGanConfig::tiny()
        });
        model.fit(&g);
        let dir = std::env::temp_dir().join("cpgan_persist_bitwise_test");
        std::fs::create_dir_all(&dir).unwrap();
        let first = dir.join("first.json");
        let second = dir.join("second.json");
        model.save(&first).unwrap();
        let loaded = CpGan::load(&first).unwrap();
        loaded.save(&second).unwrap();
        let a = std::fs::read(&first).unwrap();
        let b = std::fs::read(&second).unwrap();
        assert_eq!(a, b, "save -> load -> save must be bitwise identical");
        std::fs::remove_file(&first).ok();
        std::fs::remove_file(&second).ok();
    }

    #[test]
    fn truncated_and_corrupt_snapshots_error_readably() {
        let g = small_graph();
        let mut model = CpGan::new(CpGanConfig {
            epochs: 2,
            sample_size: 36,
            ..CpGanConfig::tiny()
        });
        model.fit(&g);
        let dir = std::env::temp_dir().join("cpgan_persist_corrupt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        model.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();

        // Truncated at half length: must be a Json error, not a panic.
        let truncated = dir.join("truncated.json");
        std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
        let Err(err) = CpGan::load(&truncated) else {
            panic!("truncated snapshot must not load");
        };
        assert!(matches!(err, PersistError::Json(_)), "got {err:?}");
        assert!(
            err.to_string().starts_with("serialization error:"),
            "unreadable message: {err}"
        );

        // Arbitrary garbage bytes: likewise a readable Json error.
        let corrupt = dir.join("corrupt.json");
        std::fs::write(&corrupt, b"\x00\xffnot json at all{{{").unwrap();
        let Err(err) = CpGan::load(&corrupt) else {
            panic!("corrupt snapshot must not load");
        };
        assert!(matches!(err, PersistError::Json(_)), "got {err:?}");
        assert!(!err.to_string().is_empty());

        // Missing file: a readable Io error.
        let missing = dir.join("does_not_exist.json");
        let Err(err) = CpGan::load(&missing) else {
            panic!("missing file must not load");
        };
        assert!(matches!(err, PersistError::Io(_)), "got {err:?}");
        assert!(err.to_string().starts_with("i/o error:"));

        for p in [path, truncated, corrupt] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn version_mismatch_rejected() {
        let model = CpGan::new(CpGanConfig::tiny());
        let mut snap = model.snapshot();
        snap.version = 999;
        assert!(matches!(
            CpGan::from_snapshot(snap),
            Err(PersistError::Incompatible(_))
        ));
    }

    #[test]
    fn wrong_parameter_count_rejected() {
        let model = CpGan::new(CpGanConfig::tiny());
        let mut snap = model.snapshot();
        snap.parameters.pop();
        assert!(matches!(
            CpGan::from_snapshot(snap),
            Err(PersistError::Incompatible(_))
        ));
    }

    /// A trained tiny model's snapshot with its simulation state edited by
    /// `corrupt`; loading it must fail as incompatible, naming `what`.
    fn assert_sim_state_rejected(
        what: &str,
        corrupt: impl FnOnce(&mut Matrix, &mut Matrix, &mut Vec<f64>),
    ) {
        let g = small_graph();
        let mut model = CpGan::new(CpGanConfig {
            epochs: 1,
            sample_size: 36,
            ..CpGanConfig::tiny()
        });
        model.fit(&g);
        let mut snap = model.snapshot();
        let Some((mu, sigma, degrees)) = snap.sim_state.as_mut() else {
            panic!("a fitted model has simulation state");
        };
        corrupt(mu, sigma, degrees);
        let Err(err) = CpGan::from_snapshot(snap) else {
            panic!("{what}: corrupt simulation state must not load");
        };
        assert!(
            matches!(err, PersistError::Incompatible(_)),
            "{what}: {err:?}"
        );
        assert!(err.to_string().contains(what), "{what}: {err}");
    }

    #[test]
    fn sim_state_with_too_few_degrees_rejected() {
        assert_sim_state_rejected("degrees for", |_, _, d| {
            d.pop();
        });
    }

    #[test]
    fn sim_state_with_too_many_degrees_rejected() {
        assert_sim_state_rejected("degrees for", |_, _, d| d.push(1.0));
    }

    #[test]
    fn sim_state_with_misshapen_sigma_rejected() {
        assert_sim_state_rejected("sigma", |_, s, _| *s = Matrix::zeros(2, s.cols()));
        assert_sim_state_rejected("sigma", |_, s, _| *s = Matrix::zeros(1, s.cols() + 1));
    }

    #[test]
    fn sim_state_with_nan_degree_rejected() {
        assert_sim_state_rejected("NaN", |_, _, d| d[3] = f64::NAN);
    }

    #[test]
    fn sim_state_with_infinite_degree_rejected() {
        assert_sim_state_rejected("inf", |_, _, d| d[0] = f64::INFINITY);
    }

    #[test]
    fn sim_state_with_negative_degree_rejected() {
        assert_sim_state_rejected("-2", |_, _, d| d[5] = -2.0);
    }

    #[test]
    fn sim_state_with_fractional_degree_rejected() {
        assert_sim_state_rejected("2.5", |_, _, d| d[7] = 2.5);
    }

    #[test]
    fn sim_state_with_inexact_degree_sum_rejected() {
        assert_sim_state_rejected("2^53", |_, _, d| d[1] = 2f64.powi(53));
    }

    #[test]
    fn incompatible_message_names_parameter_index_and_shapes() {
        // A registry operator debugging a bad model file needs to know
        // *which* tensor is off and by how much, not just "mismatch".
        let model = CpGan::new(CpGanConfig::tiny());
        let mut snap = model.snapshot();
        let total = snap.parameters.len();
        assert!(total > 2, "tiny model should register several tensors");
        let victim = 2;
        let (r, c) = snap.parameters[victim].shape();
        snap.parameters[victim] = Matrix::zeros(r + 3, c + 1);
        let Err(err) = CpGan::from_snapshot(snap) else {
            panic!("shape-corrupted snapshot must not load");
        };
        let msg = err.to_string();
        assert!(matches!(err, PersistError::Incompatible(_)), "{msg}");
        assert!(
            msg.contains(&format!("parameter {victim} of {total}")),
            "message must name the offending index: {msg}"
        );
        assert!(
            msg.contains(&format!("expected shape {r}x{c}")),
            "message must show the model's shape: {msg}"
        );
        assert!(
            msg.contains(&format!("snapshot has {}x{}", r + 3, c + 1)),
            "message must show the snapshot's shape: {msg}"
        );

        // Count mismatches likewise state both sides.
        let model = CpGan::new(CpGanConfig::tiny());
        let mut snap = model.snapshot();
        snap.parameters.truncate(1);
        let Err(err) = CpGan::from_snapshot(snap) else {
            panic!("truncated parameter list must not load");
        };
        let msg = err.to_string();
        assert!(msg.contains("snapshot has 1 tensors"), "{msg}");
        assert!(msg.contains(&format!("model expects {total}")), "{msg}");
    }
}
