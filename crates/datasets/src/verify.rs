//! Reference-stat verification (`cpgan data verify`).
//!
//! Recomputes the registry's reference scalars — n, m, mean degree,
//! degree Gini, power-law exponent, characteristic path length — on a
//! loaded graph and diffs each against the entry's reference value under
//! that entry's per-stat tolerance. What the reference *is* depends on
//! the entry's [`crate::registry::Source`]:
//!
//! * **upstream** entries diff against the published Table II (or
//!   exemplar-table) values — a real-graph fidelity check, runnable once
//!   the real files are placed in the data directory;
//! * **fixture surrogates** diff against measurements recorded when the
//!   fixture was generated — an ingestion-fidelity gate (parsers,
//!   interning, symmetrization, CSR build must reproduce the recorded
//!   numbers), deliberately *not* a claim about the real dataset;
//! * **synthetic stand-ins** diff against their spec's published targets
//!   under wide synthesizer-fidelity bounds.
//!
//! The PWE check uses the KS-fitted-cutoff estimator
//! ([`powerlaw::powerlaw_exponent_ks`]): published tables fit the cutoff
//! too, and the fixed `d_min = 1` estimator is mathematically capped at
//! `1 + 1/ln 2 ≈ 2.44`, below e.g. Citeseer's published 2.8757.
//!
//! All measurements are deterministic: CPL uses evenly-spaced BFS
//! sources, everything else is a pure fold over the degree sequence, so
//! reports are bit-identical across thread counts.

use crate::registry::DatasetEntry;
use cpgan_graph::stats::{gini, path, powerlaw};
use cpgan_graph::Graph;
use serde::Serialize;

/// Default BFS-source cap for the CPL measurement. 512 evenly-spaced
/// sources keep verification fast on large graphs while staying exact on
/// graphs smaller than the cap.
pub const DEFAULT_CPL_SOURCES: usize = 512;

/// One reference-vs-measured comparison.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StatCheck {
    /// Stat name (`n`, `m`, `mean_degree`, `gini`, `pwe`, `cpl`).
    pub stat: &'static str,
    /// Reference value (published, recorded-fixture, or stand-in target —
    /// see the module docs).
    pub reference: f64,
    /// Value measured on the loaded graph.
    pub measured: f64,
    /// Absolute tolerance applied (0 = must match exactly).
    pub tolerance: f64,
    /// Whether `|measured - reference| <= tolerance`.
    pub pass: bool,
}

/// The full verification report for one dataset; `cpgan data verify
/// --report` writes it as JSON.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VerifyReport {
    /// Registry name of the dataset.
    pub dataset: String,
    /// Whether every check passed.
    pub passed: bool,
    /// Every comparison performed, registry order.
    pub checks: Vec<StatCheck>,
}

impl VerifyReport {
    /// Human-readable fixed-width table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "verify {}\n  {:<12} {:>14} {:>14} {:>12}  status\n",
            self.dataset, "stat", "reference", "measured", "tolerance"
        );
        for c in &self.checks {
            out.push_str(&format!(
                "  {:<12} {:>14.4} {:>14.4} {:>12.4}  {}\n",
                c.stat,
                c.reference,
                c.measured,
                c.tolerance,
                if c.pass { "ok" } else { "FAIL" }
            ));
        }
        out.push_str(&format!(
            "  result: {}\n",
            if self.passed { "PASS" } else { "FAIL" }
        ));
        out
    }
}

fn check(stat: &'static str, reference: f64, measured: f64, tolerance: f64) -> StatCheck {
    StatCheck {
        stat,
        reference,
        measured,
        tolerance,
        pass: (measured - reference).abs() <= tolerance,
    }
}

/// Verifies `g` against `entry`'s reference statistics.
///
/// `cpl_sources` bounds the BFS sources for the CPL measurement (use
/// [`DEFAULT_CPL_SOURCES`] unless exactness matters more than time). The
/// CPL check only runs when the registry records a CPL for the entry.
pub fn verify(entry: &DatasetEntry, g: &Graph, cpl_sources: usize) -> VerifyReport {
    let _span = cpgan_obs::span("data.verify");
    let p = &entry.reference;
    let t = &entry.tol;
    let degs = g.degrees();

    let mut checks = vec![
        check("n", p.n as f64, g.n() as f64, 0.0),
        check("m", p.m as f64, g.m() as f64, t.m_rel * p.m as f64),
        check("mean_degree", p.mean_degree, g.mean_degree(), t.mean_degree),
        check("gini", p.gini, gini::gini_coefficient(&degs), t.gini),
        check("pwe", p.pwe, powerlaw::powerlaw_exponent_ks(&degs), t.pwe),
    ];
    if let Some(cpl) = p.cpl {
        checks.push(check(
            "cpl",
            cpl,
            path::characteristic_path_length(g, cpl_sources),
            t.cpl,
        ));
    }
    VerifyReport {
        dataset: entry.name.clone(),
        passed: checks.iter().all(|c| c.pass),
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_and_serializes() {
        // A 4-node path checked against the citeseer fixture's recorded
        // stats: the size checks fail, so the report does.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let entry = crate::resolve("citeseer-fixture").unwrap();
        let report = verify(entry, &g, DEFAULT_CPL_SOURCES);
        assert!(!report.passed);
        let text = report.render();
        assert!(text.contains("FAIL"));
        assert!(text.contains("verify citeseer-fixture"));
        assert!(text.contains("reference"));
        let value = serde::Serialize::to_value(&report);
        assert_eq!(value.get("passed"), Some(&serde::Value::Bool(false)));
        let checks = match value.get("checks") {
            Some(serde::Value::Array(checks)) => checks,
            other => panic!("checks must be an array, got {other:?}"),
        };
        assert_eq!(checks.len(), report.checks.len());
        let n = &checks[0];
        assert_eq!(n.get("stat"), Some(&serde::Value::Str("n".to_string())));
        assert_eq!(
            n.get("reference").and_then(serde::Value::as_f64),
            Some(3327.0)
        );
        assert_eq!(n.get("measured").and_then(serde::Value::as_f64), Some(4.0));
    }

    #[test]
    fn exact_checks_use_zero_tolerance() {
        let c = check("n", 10.0, 11.0, 0.0);
        assert!(!c.pass);
        let c = check("n", 10.0, 10.0, 0.0);
        assert!(c.pass);
    }
}
