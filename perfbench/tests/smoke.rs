//! Short, small-seed versions of every workload: every metric in
//! `BENCHMARK.json` is printed with its unit, the output checks pass, and
//! the digest repeats for a seed.

use apiary_perfbench::runner::{self, Args, END_TO_END, PER_LAYER, WORKLOADS};
use apiary_perfbench::Length;
use std::process::Command;

fn short(workload: &str, seed: u64, trace: bool) -> Args {
    Args {
        workload: workload.to_string(),
        seed,
        seconds: 0,
        trace,
        length: Length::Short,
    }
}

/// Runs the binary; returns its stdout, after checking it exited 0.
fn run_binary(workload: &str, seed: u64, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", &trace.to_string()])
        .args(["--length", "short"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The metric names of one `BENCHMARK.json` section, in order.
fn benchmark_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} in BENCHMARK.json"));
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let names = |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(benchmark_names("end_to_end"), names(&END_TO_END));
    assert_eq!(benchmark_names("per_layer"), names(&PER_LAYER));
    assert_eq!(benchmark_names("workloads"), WORKLOADS.to_vec());
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    for w in WORKLOADS {
        for (trace, metrics) in [(0, &END_TO_END[..]), (1, &PER_LAYER[..])] {
            let stdout = run_binary(w, 1, trace);
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            for (name, unit) in metrics {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{w}: {name} missing from {last}"));
                let rest = &last[at + entry.len()..];
                assert!(
                    rest.contains(&format!("\"unit\": \"{unit}\"")),
                    "{w}: {name} lacks unit {unit}"
                );
                assert!(
                    stdout.lines().any(|l| l.trim_start().starts_with(name)),
                    "{w}: {name} not in the human-readable lines"
                );
            }
            assert!(stdout.contains(&format!("digest {w} seed=1 fnv1a64=")));
        }
    }
}

#[test]
fn output_checks_pass_and_digest_repeats_per_seed() {
    for w in WORKLOADS {
        let a = runner::run(&short(w, 2, false));
        assert!(a.correct, "{w}: {:?}", a.errors);
        assert_eq!(a.failed, 0);
        let b = runner::run(&short(w, 2, true));
        assert!(b.correct, "{w} traced: {:?}", b.errors);
        assert_eq!(a.digest, b.digest, "{w}: tracing changed the simulation");
        let c = runner::run(&short(w, 3, false));
        assert_ne!(
            a.digest, c.digest,
            "{w}: the seed does not reach the inputs"
        );
        let spans = b.spans.expect("a traced run keeps its spans");
        assert!(spans.spans().iter().any(|s| s.name == "run"));
    }
}

#[test]
fn bad_command_lines_exit_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 0 --trace 0",
        "--workload board_kv --seed 1 --seconds 0 --trace 2",
        "--workload board_kv --seconds 0",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args.split(' '))
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args}");
        assert!(out.stdout.is_empty(), "{args} printed a result");
    }
}
