//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one named workload, prints every metric with its unit and the
//! run's digest, and ends with a one-line JSON result. Exits 0 only when
//! every output check passed; exits 2 on a bad command line.

use apiary_perfbench::runner::{self, Args};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--length full|short]",
                runner::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = runner::run(&args);
    for line in &report.lines {
        println!("{line}");
    }
    if let Some(rec) = &report.spans {
        // Spans stay in memory during the run and are written once here.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        let path = dir.join(format!("{}.spans.tsv", args.workload));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, rec.to_tsv())) {
            Ok(()) => println!("spans {} written to {}", rec.spans().len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    for e in &report.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
