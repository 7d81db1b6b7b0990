//! The suite harness: runs E1..E19 on a scoped thread pool.
//!
//! Every experiment owns its own seeded `SimRng`, so experiments are
//! independent and can run concurrently. Determinism contract: for any
//! `jobs` value the per-experiment [`ExperimentReport`]s are byte-identical
//! (rendered text, metrics, sim_cycles) — only `wall_ms` varies. Results
//! are always returned (and printed) in suite order regardless of which
//! worker finished first.

use crate::experiments as e;
use crate::report::ExperimentReport;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// An experiment entry point: `quick` → structured report.
pub type ExperimentFn = fn(bool) -> ExperimentReport;

/// The full suite, in output order. Each entry pairs an experiment's slug —
/// its module name and the stem of its `results/<slug>.{json,txt}` pair —
/// with its entry point. The slug's `eNN` prefix is the report id
/// ([`slug_id`]: `e09_noc_scaling` is `E9`).
pub const SUITE: &[(&str, ExperimentFn)] = &[
    ("e01_table1", e::e01_table1::report),
    ("e02_figure1", e::e02_figure1::report),
    ("e03_monitor_overhead", e::e03_monitor_overhead::report),
    ("e04_direct_vs_host", e::e04_direct_vs_host::report),
    ("e05_isolation_cost", e::e05_isolation_cost::report),
    ("e06_rate_limiting", e::e06_rate_limiting::report),
    ("e07_segments_vs_pages", e::e07_segments_vs_pages::report),
    ("e08_fault_handling", e::e08_fault_handling::report),
    ("e09_noc_scaling", e::e09_noc_scaling::report),
    ("e10_video_pipeline", e::e10_video_pipeline::report),
    ("e11_multi_tenant", e::e11_multi_tenant::report),
    ("e12_remote_service", e::e12_remote_service::report),
    ("e13_noc_ablation", e::e13_noc_ablation::report),
    ("e14_reconfig_churn", e::e14_reconfig_churn::report),
    ("e15_memory_service", e::e15_memory_service::report),
    ("e16_chaos", e::e16_chaos::report),
    ("e17_cluster_scaleout", e::e17_cluster_scaleout::report),
    ("e18_serverless", e::e18_serverless::report),
    ("e19_checkpoint", e::e19_checkpoint::report),
];

/// The report id a suite slug names: `e09_noc_scaling` → `E9`.
pub fn slug_id(slug: &str) -> String {
    let digits = slug
        .strip_prefix('e')
        .and_then(|rest| rest.split('_').next())
        .unwrap_or_default();
    format!("E{}", digits.trim_start_matches('0'))
}

/// The suite entries named by a comma-separated id list such as
/// `E16,E17`, in suite order.
///
/// # Errors
///
/// The first id that names no experiment.
pub fn select(ids: &str) -> Result<Vec<(&'static str, ExperimentFn)>, String> {
    let wanted: Vec<&str> = ids.split(',').collect();
    if let Some(bad) = wanted
        .iter()
        .find(|&&id| !SUITE.iter().any(|&(slug, _)| slug_id(slug) == id))
    {
        return Err(format!("unknown experiment id `{bad}`"));
    }
    Ok(SUITE
        .iter()
        .copied()
        .filter(|&(slug, _)| wanted.contains(&slug_id(slug).as_str()))
        .collect())
}

/// Default worker count: the machine's available cores.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Per-experiment result file path: `results/<slug>.json` for the suite
/// entry whose id is `id`, beside its `results/<slug>.txt`.
pub fn result_file(id: &str) -> String {
    let slug = SUITE
        .iter()
        .map(|&(slug, _)| slug)
        .find(|&slug| slug_id(slug) == id)
        .map_or_else(|| id.to_ascii_lowercase(), str::to_string);
    format!("results/{slug}.json")
}

/// Runs one experiment and stamps its wall time.
pub fn run_one(f: ExperimentFn, quick: bool) -> ExperimentReport {
    let t0 = Instant::now();
    let mut report = f(quick);
    report.wall_ms = t0.elapsed().as_secs_f64() * 1000.0;
    report
}

/// Runs `experiments` (the whole [`SUITE`] or a [`select`]ion of it) on
/// `jobs` scoped workers (clamped to [1, number of experiments]) and
/// returns the reports in the order given.
pub fn run_suite(
    experiments: &[(&str, ExperimentFn)],
    quick: bool,
    jobs: usize,
) -> Vec<ExperimentReport> {
    let jobs = jobs.clamp(1, experiments.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ExperimentReport>>> =
        experiments.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(_, f)) = experiments.get(i) else {
                    break;
                };
                let report = run_one(f, quick);
                *slots[i].lock().unwrap() = Some(report);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_keeps_suite_order_and_rejects_unknown_ids() {
        let slugs = |ids| -> Vec<&str> { select(ids).unwrap().iter().map(|e| e.0).collect() };
        assert_eq!(slugs("E17,E9"), ["e09_noc_scaling", "e17_cluster_scaleout"]);
        assert_eq!(slugs("E1,E1"), ["e01_table1"]);
        assert_eq!(select("E20").unwrap_err(), "unknown experiment id `E20`");
        assert!(select("e1").is_err() && select("E01").is_err() && select("").is_err());
        assert_eq!(result_file("E9"), "results/e09_noc_scaling.json");
    }
}
