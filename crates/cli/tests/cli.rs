//! End-to-end tests of the `cpgan` binary: fit -> generate -> eval.

// Test-support helpers sit outside `#[test]` fns, where the
// `allow-*-in-tests` carve-out does not reach; panicking is the right
// failure mode in test code.
#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_cpgan")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cpgan_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn write_demo_graph(path: &PathBuf) {
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
