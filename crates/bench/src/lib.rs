#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! The harness behind the `results/BENCH_*.json` gate binaries (`matmul`,
//! `parallel`, `train`, `scale`, `serve`, `obs_overhead`), and the command
//! line of the table and figure binaries ([`table_args`]).
//!
//! Every binary parses its flags with [`cpgan_cli::args::Args`] before any
//! work and exits 1 on a flag it does not read. One [`Bench`] per gate run
//! resolves the thread count, times the legs ([`time`], [`best_of`]),
//! writes the report and checks the `--assert-*` gates. Every report is
//! the run's metadata (`BenchMeta`), then
//! `warning`, then the binary's own `#[derive(Serialize)]` body, rendered by
//! `serde_json`, so reports from different machines and revisions are
//! comparable without guessing at the environment.

use cpgan_cli::args::Args;
use cpgan_eval::EvalConfig;
use serde::{Serialize, Value};
use std::time::Instant;

/// Set as the report's `warning` when threads are oversubscribed onto a
/// single hardware thread.
const ONE_CORE_WARNING: &str = "available_parallelism() == 1: threads are \
     oversubscribed onto one hardware thread; timings include scheduling \
     overhead, not parallel scaling";

/// Environment metadata captured once per benchmark run.
#[derive(Serialize)]
struct BenchMeta {
    /// Hardware threads visible to the process.
    available_parallelism: usize,
    /// Worker threads the benchmark actually used.
    threads: usize,
    /// The raw `CPGAN_THREADS` setting, if any.
    cpgan_threads_env: Option<String>,
    /// Short git revision of the workspace, or `"unknown"` outside a repo.
    git_rev: String,
}

impl BenchMeta {
    /// Captures the current environment; `threads` is the worker count the
    /// benchmark resolved.
    fn capture(threads: usize) -> Self {
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        BenchMeta {
            available_parallelism: hardware_threads(),
            threads,
            cpgan_threads_env: std::env::var("CPGAN_THREADS").ok(),
            git_rev,
        }
    }
}

/// One benchmark run: its flags, thread count, report metadata and gates.
pub struct Bench {
    name: &'static str,
    args: Args,
    meta: BenchMeta,
    warning: Option<&'static str>,
    gates: Vec<(bool, String)>,
}

impl Bench {
    /// A run with a parallel leg, reading `--threads` besides the binary's
    /// own value flags `values` (names without `--`). `--threads N` wins;
    /// otherwise every hardware thread. On a 1-core box the default would
    /// silently time serial against serial, so the run takes 4
    /// oversubscribed threads and carries a `warning` instead.
    pub fn parallel(name: &'static str, values: &[&str]) -> Bench {
        let args = parse_env(name, &[values, &["threads"]].concat(), &[], 0);
        let hw = hardware_threads();
        let threads = args.value::<usize>("threads").unwrap_or_else(|e| fail(&e));
        let (threads, warning) = match threads {
            Some(t) => (t.max(1), None),
            None if hw > 1 => (hw, None),
            None => (4, Some(ONE_CORE_WARNING)),
        };
        Bench::new(name, args, BenchMeta::capture(threads), warning)
    }

    /// A run at a fixed thread count, warned about when that count
    /// oversubscribes a 1-core box. It reads the value flags `values` and
    /// the bare `switches`.
    pub fn fixed(name: &'static str, threads: usize, values: &[&str], switches: &[&str]) -> Bench {
        let args = parse_env(name, values, switches, 0);
        let warning = (hardware_threads() == 1 && threads > 1).then_some(ONE_CORE_WARNING);
        Bench::new(name, args, BenchMeta::capture(threads), warning)
    }

    fn new(
        name: &'static str,
        args: Args,
        meta: BenchMeta,
        warning: Option<&'static str>,
    ) -> Bench {
        if let Some(w) = warning {
            eprintln!("WARNING: {w}");
        }
        Bench {
            name,
            args,
            meta,
            warning,
            gates: Vec::new(),
        }
    }

    /// The thread count the run resolved.
    pub fn threads(&self) -> usize {
        self.meta.threads
    }

    /// The parsed command line.
    pub fn args(&self) -> &Args {
        &self.args
    }

    /// Gates `measured` against the bound given as `--flag bound`, if any
    /// (`flag` without `--`): `assert-min-*` flags need
    /// `measured >= bound`, all others `measured <= bound`. A NaN
    /// measurement fails either way. A bound that does not parse exits 1,
    /// so a mistyped bound never silently disables the gate.
    pub fn gate(&mut self, flag: &str, what: &str, measured: f64) {
        if let Some(bound) = self.args.value::<f64>(flag).unwrap_or_else(|e| fail(&e)) {
            let passed = if flag.starts_with("assert-min-") {
                measured >= bound
            } else {
                measured <= bound
            };
            let text = format!("{what} = {measured:.4} (bound: --{flag} {bound})");
            self.gates.push((passed, text));
        }
    }

    /// Renders the report: meta fields, then `warning`, then `body`'s fields.
    fn render(&self, body: &impl Serialize) -> Result<String, String> {
        let mut fields = object_fields(self.meta.to_value())?;
        fields.push(("warning".to_string(), self.warning.to_value()));
        fields.extend(object_fields(body.to_value())?);
        let mut json =
            serde_json::to_string_pretty(&Value::Object(fields)).map_err(|e| e.to_string())?;
        json.push('\n');
        Ok(json)
    }

    /// Writes `results/BENCH_<name>.json`, then checks the gates. Exits 1
    /// when the report cannot be rendered or written, and, once it is on
    /// disk, when any gate fails.
    pub fn finish(self, body: &impl Serialize) {
        let path = format!("results/BENCH_{}.json", self.name);
        let written = self.render(body).and_then(|json| {
            std::fs::create_dir_all("results")
                .and_then(|()| std::fs::write(&path, json))
                .map_err(|e| e.to_string())
        });
        if let Err(e) = written {
            fail(&format!("cannot write {path}: {e}"));
        }
        eprintln!("wrote {path}");
        for (passed, text) in &self.gates {
            eprintln!("{} {text}", if *passed { "gate OK:" } else { "FAIL:" });
        }
        if self.gates.iter().any(|(passed, _)| !passed) {
            std::process::exit(1);
        }
    }
}

fn object_fields(value: Value) -> Result<Vec<(String, Value)>, String> {
    match value {
        Value::Object(fields) => Ok(fields),
        other => Err(format!(
            "report part is a JSON {}, not an object",
            other.kind()
        )),
    }
}

/// Parses the process's command line, or exits 1 naming the first token
/// the binary does not read.
fn parse_env(name: &str, values: &[&str], switches: &[&str], max_positionals: usize) -> Args {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    Args::parse(&tokens, values, switches, max_positionals)
        .unwrap_or_else(|e| fail(&format!("{name}: {e}")))
}

/// The value flags every table and figure binary reads.
const EVAL_FLAGS: [&str; 4] = ["scale", "seeds", "deep-epochs", "cpgan-epochs"];

/// Parses the command line of a table or figure binary: `--fast`, the
/// [`EvalConfig`] flags, the binary's own value flags `extra`, and up to
/// `max_positionals` positionals. Exits 1 on anything else or on a value
/// that does not parse.
pub fn table_args(name: &str, extra: &[&str], max_positionals: usize) -> (Args, EvalConfig) {
    let values = [&EVAL_FLAGS[..], extra].concat();
    let args = parse_env(name, &values, &["fast"], max_positionals);
    let cfg = eval_config(&args).unwrap_or_else(|e| fail(&format!("{name}: {e}")));
    (args, cfg)
}

/// The [`EvalConfig`] a table command line asks for: `--fast` picks
/// [`EvalConfig::fast`], then `--scale`, `--seeds`, `--deep-epochs` and
/// `--cpgan-epochs` override. Zero seeds is an error: a table needs at
/// least one run per cell.
pub fn eval_config(args: &Args) -> Result<EvalConfig, String> {
    let mut cfg = if args.switch("fast") {
        EvalConfig::fast()
    } else {
        EvalConfig::default()
    };
    for (flag, field) in EVAL_FLAGS.into_iter().zip([
        &mut cfg.scale,
        &mut cfg.seeds,
        &mut cfg.deep_epochs,
        &mut cfg.cpgan_epochs,
    ]) {
        if let Some(v) = args.value(flag)? {
            *field = v;
        }
    }
    if cfg.seeds == 0 {
        return Err("flag --seeds must be at least 1".to_string());
    }
    Ok(cfg)
}

/// The efficiency sweep sizes: every `cpgan_data::sweep::SWEEP_SIZES`
/// entry up to `--max-size` (default 100k, or 1k under `--fast`).
pub fn sweep_sizes(args: &Args) -> Result<Vec<usize>, String> {
    let default = if args.switch("fast") { 1_000 } else { 100_000 };
    let max = args.value("max-size")?.unwrap_or(default);
    Ok(cpgan_data::sweep::SWEEP_SIZES
        .iter()
        .copied()
        .filter(|&n| n <= max)
        .collect())
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Prints `msg` and exits 1.
pub fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// Runs `f` once; returns its result and wall-clock seconds.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Best-of-`reps` seconds for each leg. Every leg first runs once untimed
/// (first-touch page faults and pool priming land there), then the legs
/// run in `reps` interleaved rounds, so CPU frequency drift on a busy box
/// hits all legs alike instead of skewing whichever ran last.
pub fn best_of<R, const N: usize>(reps: usize, mut legs: [&mut dyn FnMut() -> R; N]) -> [f64; N] {
    for leg in legs.iter_mut() {
        std::hint::black_box(leg());
    }
    let mut best = [f64::INFINITY; N];
    for _ in 0..reps.max(1) {
        for (leg, best) in legs.iter_mut().zip(best.iter_mut()) {
            *best = best.min(time(|| std::hint::black_box(leg())).1);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn bench(threads_env: Option<&str>, warning: Option<&'static str>, args: &[&str]) -> Bench {
        let meta = BenchMeta {
            available_parallelism: 2,
            threads: 2,
            cpgan_threads_env: threads_env.map(str::to_string),
            git_rev: "abc1234".to_string(),
        };
        let values = ["assert-min-x", "assert-max-y", "assert-min-z"];
        let args = Args::parse(&strings(args), &values, &[], 0).unwrap();
        Bench::new("test", args, meta, warning)
    }

    fn table(args: &[&str]) -> Result<Args, String> {
        Args::parse(
            &strings(args),
            &[&EVAL_FLAGS[..], &["max-size"]].concat(),
            &["fast"],
            0,
        )
    }

    #[derive(Serialize)]
    struct Body {
        kernels: Vec<u32>,
        ratio: f64,
    }

    fn render(b: &Bench, ratio: f64) -> Result<Value, String> {
        let json = b.render(&Body {
            kernels: vec![1, 2],
            ratio,
        })?;
        serde_json::parse_value(&json).map_err(|e| e.to_string())
    }

    #[test]
    fn report_keys_are_meta_then_warning_then_body() {
        let Ok(Value::Object(fields)) = render(&bench(None, Some("1 core"), &[]), 1.5) else {
            panic!("report must be a JSON object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let meta = [
            "available_parallelism",
            "threads",
            "cpgan_threads_env",
            "git_rev",
        ];
        assert_eq!(keys[..4], meta);
        assert_eq!(keys[4..], ["warning", "kernels", "ratio"]);
        let no_warning = render(&bench(None, None, &[]), 1.5).unwrap();
        assert_eq!(no_warning.get("warning"), Some(&Value::Null));
        assert_eq!(BenchMeta::capture(4).threads, 4);
    }

    #[test]
    fn threads_env_with_quotes_and_backslashes_round_trips() {
        let raw = "4\"\\x";
        let report = render(&bench(Some(raw), None, &[]), 0.0).unwrap();
        assert_eq!(
            report.get("cpgan_threads_env"),
            Some(&Value::Str(raw.into()))
        );
    }

    #[test]
    fn render_rejects_non_finite_and_non_object_bodies() {
        assert!(render(&bench(None, None, &[]), f64::NAN).is_err());
        assert!(bench(None, None, &[]).render(&vec![1u32]).is_err());
    }

    #[test]
    fn best_of_warms_each_leg_once_then_interleaves_reps() {
        let log = RefCell::new(String::new());
        let best = best_of(
            3,
            [&mut || log.borrow_mut().push('a'), &mut || {
                log.borrow_mut().push('b')
            }],
        );
        assert_eq!(log.into_inner(), "abababab");
        assert!(best.iter().all(|s| s.is_finite() && *s >= 0.0));
    }

    #[test]
    fn gates_pass_fail_and_skip() {
        let mut b = bench(
            None,
            None,
            &["--assert-min-x", "1.5", "--assert-max-y", "100"],
        );
        b.gate("assert-min-x", "x", 1.6);
        b.gate("assert-max-y", "y", 120.0);
        b.gate("assert-min-z", "z", 0.0);
        b.gate("assert-min-x", "nan", f64::NAN);
        let passed: Vec<bool> = b.gates.iter().map(|(p, _)| *p).collect();
        assert_eq!(passed, [true, false, false]);
        assert_eq!(b.gates[1].1, "y = 120.0000 (bound: --assert-max-y 100)");
    }

    #[test]
    fn arg_parsing() {
        let cfg = eval_config(&table(&["--scale", "32", "--seeds", "3"]).unwrap()).unwrap();
        assert_eq!(cfg.scale, 32);
        assert_eq!(cfg.seeds, 3);
    }

    #[test]
    fn fast_flag() {
        let args = table(&["--fast"]).unwrap();
        assert_eq!(eval_config(&args).unwrap().seeds, 1);
        assert_eq!(sweep_sizes(&args).unwrap(), vec![100, 1_000]);
    }

    #[test]
    fn sweep_sizes_default_and_capped() {
        assert_eq!(
            sweep_sizes(&table(&[]).unwrap()).unwrap(),
            vec![100, 1_000, 10_000, 100_000]
        );
        let args = table(&["--max-size", "10000"]).unwrap();
        assert_eq!(sweep_sizes(&args).unwrap(), vec![100, 1_000, 10_000]);
    }

    #[test]
    fn bad_flag_values_are_errors_naming_the_flag() {
        let err = eval_config(&table(&["--scale", "abc"]).unwrap()).unwrap_err();
        assert!(err.contains("--scale") && err.contains("abc"), "{err}");
        let err = table(&["--fast", "--seeds"]).unwrap_err();
        assert!(err.contains("--seeds"), "{err}");
        let err = eval_config(&table(&["--seeds", "0"]).unwrap()).unwrap_err();
        assert!(err.contains("--seeds"), "{err}");
        let err = sweep_sizes(&table(&["--max-size", "10k"]).unwrap()).unwrap_err();
        assert!(err.contains("--max-size") && err.contains("10k"), "{err}");
        let err = table(&["--max-size"]).unwrap_err();
        assert!(err.contains("--max-size"), "{err}");
        let err = table(&["--fast", "--scael", "2"]).unwrap_err();
        assert!(err.contains("--scael"), "{err}");
    }
}
