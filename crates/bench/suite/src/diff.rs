//! `suite --diff A B`: compares two result sets (one or more runs per
//! side, best made interleaved: A, B, A, B, …). End-to-end metrics get a
//! verdict under the registry bounds; per-layer rows are listed by size of
//! change.

use crate::registry::{self, Better};
use crate::report::RunResult;
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The verdict on one end-to-end metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The medians differ by more than the bound in the better direction,
    /// and every run of B is better than every run of A.
    Improved,
    /// The medians differ by more than the bound in the worse direction,
    /// and every run of B is worse than every run of A.
    Regressed,
    /// The medians are within the bound, and both sides' spreads are too
    /// (or every run of B is better than every run of A).
    Unchanged,
    /// Anything else: the medians moved past the bound but the runs of the
    /// two sides overlap, or a side's spread (interquartile range over
    /// median) is wider than the bound. The runs cannot tell a change from
    /// noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Interquartile range over median; 0 for a single run.
fn spread(q: (f64, f64, f64)) -> f64 {
    if q.1.abs() > 0.0 {
        (q.2 - q.0) / q.1.abs()
    } else {
        0.0
    }
}

/// Judges `after` against `before` for a metric with direction `better`
/// and relative `bound`.
///
/// A shift in machine speed between the two sets moves every run of one
/// side, so a median change past the bound alone is not a verdict: it takes
/// every run of one side beating every run of the other. With a few runs
/// per side taken interleaved, a slow phase of the host lands on both
/// sides and breaks that separation.
pub fn verdict(before: &[f64], after: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some(a), Some(b)) = (quartiles(before), quartiles(after)) else {
        return Verdict::Unresolved;
    };
    if a.1.abs() <= 0.0 {
        return Verdict::Unresolved;
    }
    // `worse(x, y)`: x is worse than y.
    let worse = |x: f64, y: f64| match better {
        Better::Lower => x > y,
        Better::Higher => x < y,
    };
    let all_worse = after.iter().all(|&y| before.iter().all(|&x| worse(y, x)));
    let all_better = after.iter().all(|&y| before.iter().all(|&x| worse(x, y)));
    let change = (b.1 - a.1) / a.1.abs();
    let worse_by = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worse_by > bound {
        if all_worse {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse_by < -bound {
        if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if (spread(a) > bound || spread(b) > bound) && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// Reads a result file: one [`RunResult`] per non-empty line.
pub fn load(path: &str) -> Result<Vec<RunResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| RunResult::from_line(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

/// `(workload, metric) -> values` over the runs of one kind.
fn collect(runs: &[RunResult], trace: bool) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in runs.iter().filter(|r| r.trace == trace) {
        for m in &run.metrics {
            out.entry((run.workload.clone(), m.name.clone()))
                .or_default()
                .push(m.value);
        }
    }
    out
}

/// Renders the comparison; the second value counts regressed metrics.
pub fn render(before: &[RunResult], after: &[RunResult]) -> (String, usize) {
    let mut out = String::new();
    let mut regressions = 0;
    let (a, b) = (collect(before, false), collect(after, false));
    let _ = writeln!(
        out,
        "{:<14} {:<12} {:>5} {:>32} {:>5} {:>32} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "runs",
        "A median [q1, q3]",
        "runs",
        "B median [q1, q3]",
        "change",
        "bound"
    );
    for w in registry::WORKLOADS {
        for m in registry::END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (Some(qa), Some(qb)) = (quartiles(va), quartiles(vb)) else {
                continue;
            };
            let v = verdict(va, vb, m.better, m.bound);
            if v == Verdict::Regressed {
                regressions += 1;
            }
            let change = if qa.1.abs() > 0.0 {
                (qb.1 - qa.1) / qa.1.abs() * 100.0
            } else {
                0.0
            };
            let cell = |q: (f64, f64, f64)| format!("{:.4} [{:.4}, {:.4}]", q.1, q.0, q.2);
            let _ = writeln!(
                out,
                "{:<14} {:<12} {:>5} {:>32} {:>5} {:>32} {:>+7.2}% {:>5.1}%  {} ({})",
                w.name,
                m.name,
                va.len(),
                cell(qa),
                vb.len(),
                cell(qb),
                change,
                m.bound * 100.0,
                v.label(),
                m.unit
            );
        }
    }

    let (a, b) = (collect(before, true), collect(after, true));
    let mut rows: Vec<(f64, String)> = Vec::new();
    for (key, va) in &a {
        let Some(vb) = b.get(key) else { continue };
        let (Some(qa), Some(qb)) = (quartiles(va), quartiles(vb)) else {
            continue;
        };
        let change = if qa.1.abs() > 0.0 {
            (qb.1 - qa.1) / qa.1.abs()
        } else if qb.1.abs() > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        let unit = registry::unit_of(&key.1).unwrap_or("");
        rows.push((
            change,
            format!(
                "{:<14} {:<34} {:>14.4} {:>14.4} {:>+9.1}%  {unit}",
                key.0,
                key.1,
                qa.1,
                qb.1,
                change * 100.0
            ),
        ));
    }
    if !rows.is_empty() {
        rows.sort_by(|x, y| y.0.abs().total_cmp(&x.0.abs()));
        let _ = writeln!(
            out,
            "\nper-layer, largest change first\n{:<14} {:<34} {:>14} {:>14} {:>10}",
            "workload", "metric", "A median", "B median", "change"
        );
        for (_, row) in rows {
            let _ = writeln!(out, "{row}");
        }
    }
    (out, regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_direction_and_the_bound() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        let faster = [8.5, 8.6, 8.4, 8.5, 8.55];
        let same = [10.2, 10.1, 10.3, 10.2, 10.25];
        assert_eq!(
            verdict(&base, &slower, Better::Lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &faster, Better::Lower, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&base, &same, Better::Lower, 0.1),
            Verdict::Unchanged
        );
        // For a higher-is-better metric the same moves flip.
        assert_eq!(
            verdict(&base, &slower, Better::Higher, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&base, &faster, Better::Higher, 0.1),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        let noisy = [8.0, 14.0, 10.0, 12.0, 9.0];
        assert_eq!(
            verdict(&base, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &base, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // The same spread resolves under a wider bound.
        assert_eq!(
            verdict(&base, &noisy, Better::Lower, 0.5),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&[], &base, Better::Lower, 0.1), Verdict::Unresolved);
        // A wide spread does not hide a change every run agrees on.
        let wide = [10.0, 10.5, 11.0, 11.5, 12.0];
        let below = [9.9, 9.95, 9.97, 9.98, 9.99];
        assert_eq!(
            verdict(&wide, &below, Better::Lower, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_median_shift_with_overlapping_runs_is_unresolved() {
        // B's median is 15% slower, but one run of A is slower than every
        // run of B: a slow phase of the host, not the code, can do that.
        let base = [10.0, 10.0, 10.1, 9.9, 12.0];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.0];
        assert_eq!(
            verdict(&base, &slower, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&slower, &base, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // Without the outlier the sides separate and the verdict stands.
        assert_eq!(
            verdict(&base[..4], &slower, Better::Lower, 0.1),
            Verdict::Regressed
        );
    }

    #[test]
    fn render_lists_verdicts_and_layer_rows() {
        use crate::report::Recorder;
        let run = |latency: f64, trace: bool| {
            let mut rec = Recorder::default();
            rec.set("setup_s", 1.0, 1);
            rec.set("latency_ms", latency, 1);
            rec.set("peak_mib", 64.0, 1);
            rec.set("core.epoch_ms", latency / 10.0, 1);
            rec.finish("fit_10k", 1, 1, trace)
        };
        let (text, regressions) = render(
            &[run(100.0, false), run(100.0, true)],
            &[run(130.0, false), run(130.0, true)],
        );
        assert_eq!(regressions, 1);
        assert!(text.contains("latency_ms"), "{text}");
        assert!(text.contains("regressed"), "{text}");
        assert!(text.contains("core.epoch_ms"), "{text}");
    }
}
