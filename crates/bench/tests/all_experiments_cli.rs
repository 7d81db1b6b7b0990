//! The `all_experiments` command line: `--only` writes just the named
//! experiments' artifacts, and bad input exits 2 before anything runs.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh, empty working directory for one run of the binary.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apiary_cli_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp cwd");
    dir
}

fn run_in(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn all_experiments")
}

#[test]
fn only_writes_the_named_experiment_and_no_baseline() {
    let dir = scratch_dir("only_e1");
    let out = run_in(&dir, &["--only", "E1", "--jobs", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut written: Vec<String> = std::fs::read_dir(dir.join("results"))
        .expect("results/ created")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .collect();
    written.sort();
    assert_eq!(written, ["e01_table1.json", "e01_table1.txt"]);
    let txt = std::fs::read_to_string(dir.join("results/e01_table1.txt")).unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains(&txt));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_input_exits_2_and_writes_nothing() {
    for (name, args) in [
        ("bogus", &["--bogus"][..]),
        ("unknown_id", &["--only", "E99"][..]),
        ("missing_ids", &["--only"][..]),
        ("only_and_guard", &["--only", "E1", "--bench-guard"][..]),
        ("bad_jobs", &["--jobs", "0"][..]),
    ] {
        let dir = scratch_dir(name);
        let out = run_in(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: all_experiments"),
            "{args:?} prints the usage text"
        );
        assert!(!dir.join("results").exists(), "{args:?} wrote results/");
        std::fs::remove_dir_all(&dir).ok();
    }
}
