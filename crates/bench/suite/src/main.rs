#![forbid(unsafe_code)]
//! One benchmark suite for CPGAN.
//!
//! ```text
//! suite [--workload NAME] [--seed S] [--seconds T] [--trace 0|1] [--out PATH]
//! suite --diff A.jsonl B.jsonl
//! suite --list
//! ```
//!
//! With `--workload`, runs that workload once: its untraced pass
//! (`--trace 0`, end-to-end metrics) or its traced pass (`--trace 1`,
//! per-layer metrics). Without it, runs every workload in a fresh child
//! process, both passes unless `--trace` picks one. Every metric is printed
//! as `workload metric value unit`, each run's full result is appended as
//! one JSON line to `--out` (default `target/bench/suite.jsonl`), and the
//! last line of standard output is the summary object
//! `{"correct","attempted","failed","metrics"}`. The exit code is 0 only
//! when every output check passed.

mod diff;
mod loadgen;
mod registry;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{Recorder, RunResult};
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};
use workloads::Ctx;

/// Measurement length when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 15;
/// Where results go when `--out` is not given.
const DEFAULT_OUT: &str = "target/bench/suite.jsonl";

const USAGE: &str = "usage: suite [--workload NAME] [--seed S] [--seconds T] [--trace 0|1] [--out PATH]\n       suite --diff A.jsonl B.jsonl\n       suite --list";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    out: String,
    diff: Option<(String, String)>,
    list: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: workloads::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: DEFAULT_OUT.to_string(),
        diff: None,
        list: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if registry::workload(&name).is_none() {
                    let known: Vec<&str> = registry::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload {name} (known: {})",
                        known.join(", ")
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                });
            }
            "--out" => args.out = value()?,
            "--diff" => {
                let a = value()?;
                let b = value()?;
                args.diff = Some((a, b));
            }
            "--list" => args.list = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Appends `run` to the results file.
fn append(path: &str, run: &RunResult) -> Result<(), String> {
    let line = run.to_line()?;
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    writeln!(file, "{line}").map_err(|e| format!("{path}: {e}"))
}

/// Runs one workload pass in this process.
fn run_one(args: &Args, name: &str, trace: bool) -> Result<RunResult, String> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace,
    };
    let mut rec = Recorder::default();
    workloads::run(name, &ctx, &mut rec);
    let run = rec.finish(name, args.seed, args.seconds, trace);
    append(&args.out, &run)?;
    Ok(run)
}

/// Runs one workload pass in a child process (fresh obs, pools and peak
/// memory) and returns the result it appended to `--out`. Only lines the
/// child appended count: a child that dies before writing one fails, even
/// if the file already ends with an older result of the same pass.
fn run_child(args: &Args, name: &str, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let before = std::fs::metadata(&args.out).map_or(0, |m| m.len());
    let status = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--out", &args.out])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    let text = std::fs::read(&args.out).unwrap_or_default();
    match appended_result(&text, before) {
        Some(run) if run.workload == name && run.trace == trace => Ok(run),
        _ => Err(format!(
            "{name} (trace {trace}) wrote no result; exit {status}"
        )),
    }
}

/// The last result in `text` past its first `before` bytes.
fn appended_result(text: &[u8], before: u64) -> Option<RunResult> {
    let appended = text.get(usize::try_from(before).ok()?..)?;
    let line = String::from_utf8_lossy(appended)
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .map(RunResult::from_line);
    line?.ok()
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if args.list {
        print!("{}", registry::listing());
        return ExitCode::SUCCESS;
    }

    if let Some((a, b)) = &args.diff {
        return match (diff::load(a), diff::load(b)) {
            (Ok(before), Ok(after)) => {
                let (text, regressions) = diff::render(&before, &after);
                print!("{text}");
                if regressions > 0 {
                    ExitCode::from(1)
                } else {
                    ExitCode::SUCCESS
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }

    let runs: Result<Vec<RunResult>, String> = match &args.workload {
        Some(name) => run_one(&args, name, args.trace.unwrap_or(false)).map(|r| vec![r]),
        None => {
            let passes: Vec<bool> = match args.trace {
                Some(t) => vec![t],
                None => vec![false, true],
            };
            let mut runs = Vec::new();
            for w in registry::WORKLOADS {
                for &trace in &passes {
                    eprintln!(
                        "== {} ({})",
                        w.name,
                        if trace { "traced" } else { "untraced" }
                    );
                    match run_child(&args, w.name, trace) {
                        Ok(run) => {
                            print!("{}", run.lines());
                            runs.push(run);
                        }
                        Err(e) => eprintln!("error: {e}"),
                    }
                }
            }
            let expected = registry::WORKLOADS.len() * passes.len();
            if runs.len() == expected {
                Ok(runs)
            } else {
                Err(format!(
                    "{} of {expected} passes produced a result",
                    runs.len()
                ))
            }
        }
    };
    let runs = match runs {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    if args.workload.is_some() {
        for run in &runs {
            print!("{}", run.lines());
        }
    }
    match report::summary(&runs) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    }
    if runs.iter().all(|r| r.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_an_appended_result_counts() {
        let line = |latency: f64| {
            let mut rec = report::Recorder::default();
            rec.set("latency_ms", latency, 1);
            let run = rec.finish("fit_10k", 1, 1, false);
            format!("{}\n", run.to_line().unwrap_or_default())
        };
        let old = line(1.0);
        let before = old.len() as u64;
        // The child died before writing: the older line does not count.
        assert_eq!(appended_result(old.as_bytes(), before), None);
        let both = format!("{old}{}", line(2.0));
        let run = appended_result(both.as_bytes(), before);
        assert_eq!(run.map(|r| r.metrics[0].value), Some(2.0));
        // A file that shrank since is no result either.
        assert_eq!(appended_result(b"", before), None);
    }
}
