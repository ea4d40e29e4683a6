#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Evaluation harness reproducing every table and figure of the paper's
//! experimental section (§IV).
//!
//! * [`registry`] — a uniform interface over all 15 generators (8
//!   traditional, 6 learning-based, CPGAN + its ablation variants),
//! * [`budget`] — the 24 GB GPU memory model that reproduces the paper's
//!   "OOM" rows at full dataset scale,
//! * [`pipelines`] — one module per experiment (Tables III–IX, Figures 5–6),
//! * [`report`] — paper-vs-measured table rendering.

pub mod budget;
pub mod paper;
pub mod pipelines;
pub mod registry;
pub mod report;

/// Scaling and effort knobs shared by the experiment pipelines.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Divisor applied to the paper's dataset sizes (1 = full scale).
    pub scale: usize,
    /// Random repetitions for mean ± std columns.
    pub seeds: usize,
    /// Training epochs for the deep baselines.
    pub deep_epochs: usize,
    /// Training epochs for CPGAN.
    pub cpgan_epochs: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Hard cap on nodes for models that materialize dense `n x n` state
    /// locally (they are skipped above it even when the paper-scale budget
    /// says they fit — CPU time guard, not a memory guard).
    pub dense_node_cap: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            scale: 16,
            seeds: 2,
            deep_epochs: 200,
            cpgan_epochs: 300,
            seed: 20220501,
            dense_node_cap: 1400,
        }
    }
}

impl EvalConfig {
    /// A fast smoke configuration for tests and `--fast` runs.
    pub fn fast() -> Self {
        EvalConfig {
            scale: 48,
            seeds: 1,
            deep_epochs: 60,
            cpgan_epochs: 60,
            dense_node_cap: 600,
            ..Default::default()
        }
    }

    /// Parses `--scale`, `--seeds`, `--deep-epochs`, `--cpgan-epochs` and
    /// `--fast` (used by every `table*`/`fig*` binary). A value flag with a
    /// missing or non-integer value is an error naming the flag.
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let mut cfg = if args.iter().any(|a| a == "--fast") {
            EvalConfig::fast()
        } else {
            EvalConfig::default()
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let field = match a.as_str() {
                "--scale" => &mut cfg.scale,
                "--seeds" => &mut cfg.seeds,
                "--deep-epochs" => &mut cfg.deep_epochs,
                "--cpgan-epochs" => &mut cfg.cpgan_epochs,
                _ => continue,
            };
            *field = flag_value(a, it.next())?;
        }
        Ok(cfg)
    }
}

/// Parses the sweep sizes for the efficiency binaries: all of
/// `cpgan_data::sweep::SWEEP_SIZES` up to `--max-size` (default 100k, or 1k
/// under `--fast`). A missing or non-integer `--max-size` is an error.
pub fn sweep_sizes_from_args(args: &[String]) -> Result<Vec<usize>, String> {
    let max = match args.iter().position(|a| a == "--max-size") {
        Some(i) => flag_value("--max-size", args.get(i + 1))?,
        None if args.iter().any(|a| a == "--fast") => 1_000,
        None => 100_000,
    };
    Ok(cpgan_data::sweep::SWEEP_SIZES
        .iter()
        .copied()
        .filter(|&n| n <= max)
        .collect())
}

/// The unsigned integer after `flag`, or an error naming the flag.
fn flag_value(flag: &str, value: Option<&String>) -> Result<usize, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("{flag} needs a non-negative integer, got '{v}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arg_parsing() {
        let cfg = EvalConfig::from_args(&strings(&["--scale", "32", "--seeds", "3"])).unwrap();
        assert_eq!(cfg.scale, 32);
        assert_eq!(cfg.seeds, 3);
    }

    #[test]
    fn fast_flag() {
        let args = strings(&["--fast"]);
        let cfg = EvalConfig::from_args(&args).unwrap();
        assert_eq!(cfg.seeds, 1);
        assert_eq!(sweep_sizes_from_args(&args).unwrap(), vec![100, 1_000]);
    }

    #[test]
    fn sweep_sizes_default_and_capped() {
        assert_eq!(
            sweep_sizes_from_args(&[]).unwrap(),
            vec![100, 1_000, 10_000, 100_000]
        );
        let args = strings(&["--max-size", "10000"]);
        assert_eq!(
            sweep_sizes_from_args(&args).unwrap(),
            vec![100, 1_000, 10_000]
        );
    }

    #[test]
    fn bad_flag_values_are_errors_naming_the_flag() {
        let err = EvalConfig::from_args(&strings(&["--scale", "abc"])).unwrap_err();
        assert!(err.contains("--scale") && err.contains("abc"), "{err}");
        let err = EvalConfig::from_args(&strings(&["--fast", "--seeds"])).unwrap_err();
        assert!(err.contains("--seeds"), "{err}");
        let err = sweep_sizes_from_args(&strings(&["--max-size", "10k"])).unwrap_err();
        assert!(err.contains("--max-size") && err.contains("10k"), "{err}");
        let err = sweep_sizes_from_args(&strings(&["--max-size"])).unwrap_err();
        assert!(err.contains("--max-size"), "{err}");
    }
}
