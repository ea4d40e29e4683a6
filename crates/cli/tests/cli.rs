//! End-to-end tests of the `cpgan` binary: fit -> generate -> eval, and
//! the `data` registry actions.

// Test-support helpers sit outside `#[test]` fns, where the
// `allow-*-in-tests` carve-out does not reach; panicking is the right
// failure mode in test code.
#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_cpgan")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cpgan_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// An empty directory of the test scratch area.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = tmp(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("fresh dir");
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(bin()).args(args).output().expect("run cpgan")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn write_demo_graph(path: &Path) {
    // Three 20-node communities with dense interiors and two bridges.
    let mut text = String::from("# nodes: 60\n");
    for c in 0..3u32 {
        let base = c * 20;
        for a in 0..20u32 {
            for b in (a + 1)..20 {
                if (a + b) % 3 != 0 {
                    text.push_str(&format!("{} {}\n", base + a, base + b));
                }
            }
        }
        text.push_str(&format!("{} {}\n", base, (base + 20) % 60));
    }
    std::fs::write(path, text).expect("write demo graph");
}

#[test]
fn stats_subcommand_reports_counts() {
    let graph = tmp("stats_graph.txt");
    write_demo_graph(&graph);
    let out = Command::new(bin())
        .args(["stats", "--input", graph.to_str().unwrap()])
        .output()
        .expect("run cpgan stats");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("nodes:            60"), "{stdout}");
    assert!(stdout.contains("louvain comms:    3"), "{stdout}");
}

#[test]
fn fit_generate_eval_round_trip() {
    let graph = tmp("pipeline_graph.txt");
    let model = tmp("pipeline_model.json");
    let generated = tmp("pipeline_gen.txt");
    write_demo_graph(&graph);

    let fit = Command::new(bin())
        .args([
            "fit",
            "--input",
            graph.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--epochs",
            "10",
            "--sample-size",
            "60",
        ])
        .output()
        .expect("run cpgan fit");
    assert!(
        fit.status.success(),
        "{}",
        String::from_utf8_lossy(&fit.stderr)
    );
    assert!(model.exists());

    let gen = Command::new(bin())
        .args([
            "generate",
            "--model",
            model.to_str().unwrap(),
            "--output",
            generated.to_str().unwrap(),
            "--seed",
            "5",
        ])
        .output()
        .expect("run cpgan generate");
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );

    let eval = Command::new(bin())
        .args([
            "eval",
            "--observed",
            graph.to_str().unwrap(),
            "--generated",
            generated.to_str().unwrap(),
        ])
        .output()
        .expect("run cpgan eval");
    assert!(
        eval.status.success(),
        "{}",
        String::from_utf8_lossy(&eval.stderr)
    );
    let stdout = String::from_utf8_lossy(&eval.stdout);
    assert!(stdout.contains("NMI:"), "{stdout}");
    assert!(stdout.contains("deg MMD:"), "{stdout}");
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = Command::new(bin())
        .arg("frobnicate")
        .output()
        .expect("run cpgan frobnicate");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn missing_flag_reports_which() {
    let out = Command::new(bin())
        .args(["fit", "--input", "nope.txt"])
        .output()
        .expect("run cpgan fit without model");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--model"), "{stderr}");
}

#[test]
fn flags_a_subcommand_does_not_read_fail_with_usage() {
    let graph = tmp("unknown_flag_graph.txt");
    write_demo_graph(&graph);
    let model = tmp("unknown_flag_model.json");
    std::fs::remove_file(&model).ok();
    let cases: [&[&str]; 3] = [
        &[
            "fit",
            "--input",
            graph.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--epoch",
            "5",
        ],
        &["serve", "--model", "m.json", "--batch-size", "4"],
        &["stats", "--input", graph.to_str().unwrap(), "--seed", "3"],
    ];
    for args in cases {
        let out = Command::new(bin()).args(args).output().expect("run cpgan");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = args[args.len() - 2];
        assert!(
            stderr.contains(&format!("unknown flag {flag} ")),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("usage:"), "{stderr}");
    }
    assert!(!model.exists(), "a rejected fit must not train");

    // The global flags stay accepted everywhere.
    let out = Command::new(bin())
        .args([
            "stats",
            "--input",
            graph.to_str().unwrap(),
            "--threads",
            "1",
        ])
        .output()
        .expect("run cpgan stats --threads");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn generate_bounds_nodes_and_defaults_to_the_served_seed() {
    let graph = tmp("bound_graph.txt");
    let model = tmp("bound_model.json");
    write_demo_graph(&graph);
    let (graph, model) = (graph.to_str().unwrap(), model.to_str().unwrap());
    let fit = run(&["fit", "--input", graph, "--model", model, "--epochs", "2"]);
    assert!(fit.status.success(), "{}", stderr(&fit));

    // No `--seed` generates what the served default seed does.
    let (plain, seeded) = (tmp("bound_plain.txt"), tmp("bound_seeded.txt"));
    let seed = cpgan_serve::DEFAULT_SEED.to_string();
    for (out, extra) in [(&plain, &[][..]), (&seeded, &["--seed", seed.as_str()][..])] {
        let args = [
            &[
                "generate",
                "--model",
                model,
                "--output",
                out.to_str().unwrap(),
            ],
            extra,
        ];
        let gen = run(&args.concat());
        assert!(gen.status.success(), "{}", stderr(&gen));
    }
    assert_eq!(
        std::fs::read(&plain).unwrap(),
        std::fs::read(&seeded).unwrap()
    );

    // One node more than a u32 id can number is refused before any work.
    let refused = tmp("bound_refused.txt");
    std::fs::remove_file(&refused).ok();
    let out = run(&[
        "generate",
        "--model",
        model,
        "--output",
        refused.to_str().unwrap(),
        "--nodes",
        "4294967296",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("at most 4294967295 nodes"),
        "{}",
        stderr(&out)
    );
    assert!(
        !refused.exists(),
        "a refused generation must not write --output"
    );
}

#[test]
fn data_actions_read_files_in_place_and_write_only_the_report() {
    let data = fresh_dir("data_dir");
    let report = tmp("data_report.json");
    let (d, r) = (data.to_str().unwrap(), report.to_str().unwrap());
    let verify = run(&[
        "data",
        "verify",
        "citeseer-fixture",
        "cora-fixture",
        "--data-dir",
        d,
        "--report",
        r,
    ]);
    assert!(verify.status.success(), "{}", stderr(&verify));
    let stats = run(&["data", "stats", "citeseer-synthetic", "--data-dir", d]);
    assert!(stats.status.success(), "{}", stderr(&stats));
    let left: Vec<_> = std::fs::read_dir(&data).unwrap().collect();
    assert!(left.is_empty(), "loading wrote {left:?}");

    let text = std::fs::read_to_string(&report).unwrap();
    let Value::Array(reports) = serde_json::parse_value(&text).unwrap() else {
        panic!("the report must be a JSON array: {text}");
    };
    assert_eq!(reports.len(), 2, "{text}");
    for (rep, name) in reports.iter().zip(["citeseer-fixture", "cora-fixture"]) {
        assert_eq!(rep.get("dataset"), Some(&Value::Str(name.to_string())));
        assert_eq!(rep.get("passed"), Some(&Value::Bool(true)));
        let Some(Value::Array(checks)) = rep.get("checks") else {
            panic!("{name}: checks must be an array: {text}");
        };
        assert_eq!(checks.len(), 6, "n, m, mean_degree, gini, pwe, cpl");
        for check in checks {
            assert!(
                matches!(check.get("stat"), Some(Value::Str(_))),
                "{check:?}"
            );
            for key in ["reference", "measured", "tolerance"] {
                assert!(
                    check.get(key).and_then(Value::as_f64).is_some(),
                    "{key}: {check:?}"
                );
            }
            assert_eq!(check.get("pass"), Some(&Value::Bool(true)), "{check:?}");
        }
    }
}

#[test]
fn data_errors_say_what_to_do() {
    // `fetch` is gone: loading reads every file where it lives.
    let out = run(&["data", "fetch", "citeseer-fixture"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("unknown action 'fetch'"),
        "{}",
        stderr(&out)
    );

    // A missing upstream file names where to place it.
    let data = fresh_dir("data_dir_upstream");
    let out = run(&[
        "data",
        "verify",
        "citeseer",
        "--data-dir",
        data.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let dest = data.join("citeseer").join("citeseer.cites");
    assert!(
        stderr(&out).contains(&dest.display().to_string()),
        "{}",
        stderr(&out)
    );
    assert!(!data.join("citeseer").exists(), "nothing is created for it");

    // A scaled stand-in cannot match full-scale reference stats: refused
    // by name before anything is loaded (a missing upstream entry would
    // otherwise fail on its files).
    for (name, scale) in [
        ("citeseer-synthetic", "4"),
        ("citeseer", "2"),
        ("cora-fixture", "0"),
    ] {
        let out = run(&[
            "data",
            "verify",
            name,
            "--scale",
            scale,
            "--data-dir",
            data.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(1), "{name} --scale {scale}");
        let err = stderr(&out);
        assert!(err.contains(&format!("--scale {scale}")), "{err}");
        assert!(
            err.contains("full-scale") && !err.contains("missing"),
            "{err}"
        );
    }
    let out = run(&["data", "verify", "citeseer-synthetic", "--scale", "1"]);
    assert!(out.status.success(), "{}", stderr(&out));
}
