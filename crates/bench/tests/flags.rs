//! Every bench binary rejects a flag it does not read, before any work:
//! a misspelt gate bound must not silently turn its CI gate off, and a
//! misspelt table flag must not fall back to a default.

#![allow(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

#[test]
fn misspelt_flags_exit_1_naming_the_flag_before_any_work() {
    let cases: [(&str, &[&str], &str); 5] = [
        (
            env!("CARGO_BIN_EXE_obs_overhead"),
            &["--assert-max-overhead-pcd", "0"],
            "--assert-max-overhead-pcd",
        ),
        (env!("CARGO_BIN_EXE_table4"), &["--scael", "2"], "--scael"),
        (
            env!("CARGO_BIN_EXE_table4"),
            &["--fast", "--seeds", "0"],
            "--seeds",
        ),
        (
            env!("CARGO_BIN_EXE_sweep"),
            &["--fast", "--json", "t.json"],
            "--json",
        ),
        (
            env!("CARGO_BIN_EXE_scale"),
            &["--max-node", "10"],
            "--max-node",
        ),
    ];
    for (i, (bin, args, flag)) in cases.into_iter().enumerate() {
        // A fresh directory shows whether the run wrote anything.
        let dir =
            std::env::temp_dir().join(format!("cpgan-bench-flags-{}-{i}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = std::process::Command::new(bin)
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap();
        let wrote = std::fs::read_dir(&dir).unwrap().next().is_some();
        std::fs::remove_dir_all(&dir).ok();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(flag), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty() && !wrote, "{bin} {args:?} did work");
    }
}
