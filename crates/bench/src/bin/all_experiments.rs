//! Runs the experiment suite (quick mode by default; pass `--full` for the
//! complete sweeps) on a scoped thread pool and writes the perf baseline.
//! This is the one way to run an experiment.
//!
//! - `--only E16[,E17,…]` runs just the named experiments (in suite order)
//!   and writes their `results/eNN_<name>.{json,txt}` pairs; it never
//!   reads or writes `results/BENCH_apiary.json`, so it cannot be combined
//!   with `--bench-guard`.
//! - `--jobs N` sets the worker count (default: available cores). Output is
//!   byte-identical for any N: reports print in suite order and only
//!   `wall_ms` varies run to run.
//! - `--det-check` runs the suite a second time on a single worker and
//!   fails (exit 1) unless every report's deterministic portion is
//!   byte-identical to the parallel run — the contract CI enforces.
//! - `--det-check=event-vs-dense` replays the suite under the dense
//!   per-cycle reference clock and fails (exit 1) unless every report is
//!   byte-identical to the event-clock run. The wall-time ratio between
//!   the two runs is the event-core speedup, recorded in the baseline.
//! - `--bench-guard` compares this run's aggregate `sim_cycles_per_sec`
//!   against the committed `results/BENCH_apiary.json` *before* overwriting
//!   it and fails (exit 1) on a drop of more than 10% — the perf-regression
//!   tripwire CI runs. Baselines from a different mode (quick vs full) are
//!   skipped with a warning rather than compared.
//! - Each experiment's structured result lands in `results/eNN_<name>.json`;
//!   the aggregate (wall time, simulated cycles/sec and headline metrics)
//!   in `results/BENCH_apiary.json`.
//!
//! An unknown flag, a bad `--jobs` value or an unknown `--only` id prints
//! the usage text and exits 2.

use apiary_bench::harness;
use apiary_bench::report::{round3, Json};
use apiary_bench::results;
use apiary_sim::{set_clock_mode, ClockMode};
use std::time::Instant;

const USAGE: &str = "usage: all_experiments [--full] [--jobs N] [--only E1[,E2,...]] \
                     [--det-check[=jobs]] [--det-check=event-vs-dense] [--bench-guard]";

/// Prints `problem` and the usage text, then exits 2.
fn usage_error(problem: &str) -> ! {
    eprintln!("all_experiments: {problem}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut quick = true;
    let mut det_check = false;
    let mut det_check_clock = false;
    let mut bench_guard = false;
    let mut jobs = harness::default_jobs();
    let mut only = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => quick = false,
            "--det-check" | "--det-check=jobs" => det_check = true,
            "--det-check=event-vs-dense" => det_check_clock = true,
            "--bench-guard" => bench_guard = true,
            "--jobs" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = n,
                _ => usage_error("--jobs needs a worker count of at least 1"),
            },
            "--only" => {
                let ids = args
                    .next()
                    .unwrap_or_else(|| usage_error("--only needs an id list"));
                only = Some(harness::select(&ids).unwrap_or_else(|e| usage_error(&e)));
            }
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    if only.is_some() && bench_guard {
        usage_error("--only runs part of the suite; --bench-guard needs all of it");
    }
    let experiments = only.as_deref().unwrap_or(harness::SUITE);

    let suite_t0 = Instant::now();
    let reports = harness::run_suite(experiments, quick, jobs);
    let suite_wall_ms = suite_t0.elapsed().as_secs_f64() * 1000.0;

    let mut clock_check: Option<Json> = None;
    if det_check_clock {
        // Replay under the dense per-cycle reference clock: the event core
        // must be an invisible optimisation, so every report's
        // deterministic portion must match byte for byte. The wall-time
        // ratio is the measured event-core speedup on this workload.
        set_clock_mode(ClockMode::Dense);
        let dense_t0 = Instant::now();
        let dense = harness::run_suite(experiments, quick, jobs);
        let dense_wall_ms = dense_t0.elapsed().as_secs_f64() * 1000.0;
        set_clock_mode(ClockMode::Event);
        let mut mismatches = 0;
        for (e, d) in reports.iter().zip(dense.iter()) {
            if e.deterministic_bytes() != d.deterministic_bytes() {
                eprintln!("det-check: {} differs between event and dense clocks", e.id);
                mismatches += 1;
            }
        }
        if mismatches > 0 {
            eprintln!("det-check FAILED: {mismatches} report(s) not byte-identical");
            std::process::exit(1);
        }
        let speedup = dense_wall_ms / suite_wall_ms.max(1e-9);
        println!(
            "det-check OK: {} reports byte-identical across event and dense clocks \
             (event {suite_wall_ms:.0} ms, dense {dense_wall_ms:.0} ms, {speedup:.2}x)",
            reports.len()
        );
        clock_check = Some(
            Json::obj()
                .set("reports_identical", true)
                .set("dense_wall_ms", round3(dense_wall_ms))
                .set("event_wall_ms", round3(suite_wall_ms))
                .set("event_speedup", round3(speedup)),
        );
    }

    if det_check {
        // Replay at a different worker count: every report must match the
        // first run byte for byte (wall_ms excluded — the only timing
        // field). On a single-core box the replay still uses two workers,
        // so the check always crosses job counts.
        let alt_jobs = if jobs == 1 { 2 } else { 1 };
        let replay = harness::run_suite(experiments, quick, alt_jobs);
        let mut mismatches = 0;
        for (p, s) in reports.iter().zip(replay.iter()) {
            if p.deterministic_bytes() != s.deterministic_bytes() {
                eprintln!(
                    "det-check: {} differs between --jobs {jobs} and --jobs {alt_jobs}",
                    p.id
                );
                mismatches += 1;
            }
        }
        if mismatches > 0 {
            eprintln!("det-check FAILED: {mismatches} report(s) not byte-identical");
            std::process::exit(1);
        }
        println!(
            "det-check OK: {} reports byte-identical across --jobs {jobs} and --jobs {alt_jobs}",
            reports.len()
        );
    }

    for r in &reports {
        println!("==================== {} ====================", r.id);
        print!("{}", r.rendered);
        println!();
    }
    for r in &reports {
        results::write_report_or_exit(r);
    }
    if only.is_some() {
        return;
    }

    let total_sim_cycles: u64 = reports.iter().map(|r| r.sim_cycles).sum();
    let cycles_per_sec = total_sim_cycles as f64 / (suite_wall_ms / 1000.0).max(1e-9);

    if bench_guard {
        // Compare against the *committed* baseline before it is overwritten
        // below. The baseline is hand-parsed (no serde in this workspace):
        // the first "sim_cycles_per_sec" in the file is the top-level
        // aggregate — the per-experiment copies live inside the
        // "experiments" array, which renders after it.
        let field = |text: &str, key: &str| -> Option<String> {
            text.lines().find_map(|l| {
                l.trim()
                    .strip_prefix(&format!("\"{key}\":"))
                    .map(|v| v.trim().trim_end_matches(',').trim_matches('"').to_string())
            })
        };
        match std::fs::read_to_string("results/BENCH_apiary.json") {
            Ok(old) => {
                let old_mode = field(&old, "mode");
                let baseline =
                    field(&old, "sim_cycles_per_sec").and_then(|v| v.parse::<f64>().ok());
                match (old_mode.as_deref(), baseline) {
                    (Some(m), _) if m != if quick { "quick" } else { "full" } => eprintln!(
                        "bench-guard: baseline mode `{m}` differs from this run; skipping comparison"
                    ),
                    (_, Some(base)) if base > 0.0 => {
                        let ratio = cycles_per_sec / base;
                        if ratio < 0.9 {
                            eprintln!(
                                "bench-guard FAILED: sim_cycles_per_sec {cycles_per_sec:.0} is \
                                 {:.1}% below the committed baseline {base:.0} (>10% regression)",
                                (1.0 - ratio) * 100.0
                            );
                            std::process::exit(1);
                        }
                        println!(
                            "bench-guard OK: sim_cycles_per_sec {cycles_per_sec:.0} vs baseline \
                             {base:.0} ({:+.1}%)",
                            (ratio - 1.0) * 100.0
                        );
                    }
                    _ => eprintln!(
                        "bench-guard: no parsable sim_cycles_per_sec in baseline; skipping"
                    ),
                }
            }
            Err(_) => eprintln!("bench-guard: no committed baseline; skipping comparison"),
        }
    }
    let experiments: Vec<Json> = reports
        .iter()
        .map(|r| {
            Json::obj()
                .set("experiment", r.id)
                .set("title", r.title)
                .set("wall_ms", round3(r.wall_ms))
                .set("sim_cycles", r.sim_cycles)
                .set("sim_cycles_per_sec", round3(r.cycles_per_sec()))
                .set("metrics", r.metrics.clone())
        })
        .collect();
    let mut bench = Json::obj()
        .set("schema", "apiary-bench-v1")
        .set("mode", if quick { "quick" } else { "full" })
        .set("clock", "event")
        .set("jobs", jobs)
        .set("suite_wall_ms", round3(suite_wall_ms))
        .set("total_sim_cycles", total_sim_cycles)
        .set("sim_cycles_per_sec", round3(cycles_per_sec))
        .set("experiments", Json::Arr(experiments));
    if let Some(cc) = clock_check {
        bench = bench.set("event_vs_dense", cc);
    }
    results::write_result_or_exit("results/BENCH_apiary.json", &bench.render_pretty());
}
