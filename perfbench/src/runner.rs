//! Repeats a workload for the requested host time and reports its metrics.
//!
//! A run generates the inputs once, makes one warm-up pass whose outcome
//! is the reference, then repeats passes until `--seconds` have elapsed.
//! Each pass sets the simulator up several times (timing each set-up),
//! keeps the last one and runs the inputs through it. The fixed
//! [`crate::calibration`] work is timed between passes, and every host
//! time of a pass is scaled by [`CALIBRATION_S`] over the mean of the two
//! calibrations around it. Host metrics are medians over passes;
//! simulated metrics come from the warm-up pass (the reference), and every
//! pass must reproduce its digest exactly.
//!
//! With `--trace 1`, untraced and traced passes alternate: per-layer host
//! times are medians over traced passes, and `trace.overhead_ratio` is the
//! traced median `wall_s` over the untraced one.

use crate::calibration::{Calibration, CALIBRATION_S};
use crate::spans::{Off, Recorder, Spans, NO_OP};
use crate::{fnv1a, quantile, Length, Outcome, Workload};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["noc_saturated", "board_kv", "cluster_faas"];

/// End-to-end metrics: `(name, unit)`. Printed by untraced runs.
pub const END_TO_END: [(&str, &str); 9] = [
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("sim_cycles_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_p50_cycles", "cycles"),
    ("sim_p99_cycles", "cycles"),
    ("sim_goodput_per_kcycle", "1/kcycle"),
    ("op_fail_ratio", "ratio"),
];

/// Per-layer metrics: `(name, unit)`. Printed by traced runs. A workload
/// that bypasses a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("sim.advance_calls", "count"),
    ("sim.cycles_per_advance", "cycles"),
    ("noc.step_s", "s"),
    ("noc.inject_s", "s"),
    ("noc.eject_s", "s"),
    ("noc.ns_per_flit_hop", "ns"),
    ("noc.flit_hops", "count"),
    ("noc.delivered", "count"),
    ("noc.inject_refused", "count"),
    ("noc.source_wait_p99_cycles", "cycles"),
    ("core.advance_s", "s"),
    ("core.swap_s", "s"),
    ("core.swaps", "count"),
    ("checkpoint.snapshot_bytes", "bytes"),
    ("checkpoint.taken", "count"),
    ("monitor.send_s", "s"),
    ("monitor.flow_hit_ratio", "ratio"),
    ("monitor.sent", "count"),
    ("monitor.rate_limited", "count"),
    ("monitor.backpressured", "count"),
    ("monitor.denied", "count"),
    ("accel.served.kv0", "count"),
    ("accel.served.kv1", "count"),
    ("accel.served.shared_a", "count"),
    ("accel.served.shared_b", "count"),
    ("net.frames_delivered", "count"),
    ("net.retransmissions", "count"),
    ("net.retransmit_ratio", "ratio"),
    ("net.acks_coalesced", "count"),
    ("net.loss_drops", "count"),
    ("cluster.dir_merged_in", "count"),
    ("cluster.dir_expired", "count"),
    ("faas.invoke_s", "s"),
    ("faas.step_s", "s"),
    ("faas.cold_ratio", "ratio"),
    ("faas.cache_hit_ratio", "ratio"),
    ("faas.cold_p99_cycles", "cycles"),
    ("faas.warm_p99_cycles", "cycles"),
    ("faas.deploys", "count"),
    ("faas.reclaims", "count"),
    ("faas.shed", "count"),
    ("faas.expired", "count"),
    ("resources.area_util_mean", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Host-time per-layer metrics: `(span name, metric name)`.
const SPAN_METRICS: [(&str, &str); 8] = [
    ("noc.step", "noc.step_s"),
    ("noc.inject", "noc.inject_s"),
    ("noc.eject", "noc.eject_s"),
    ("core.advance", "core.advance_s"),
    ("core.swap", "core.swap_s"),
    ("monitor.send", "monitor.send_s"),
    ("faas.invoke", "faas.invoke_s"),
    ("faas.step", "faas.step_s"),
];

/// Index of `noc.step` in [`SPAN_METRICS`].
const SPAN_NOC_STEP: usize = 0;

/// Set-ups timed per pass; the median over all of them is `setup_s`.
const SETUPS_PER_PASS: usize = 5;
/// Fewest timed passes of each kind a run makes, however short `--seconds`.
const MIN_PASSES: usize = 3;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub length: Length,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>
    /// [--length full|short]`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut length = Length::Full;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
                "--seconds" => seconds = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v}")),
                    }
                }
                "--length" => {
                    length = match value()?.as_str() {
                        "full" => Length::Full,
                        "short" => Length::Short,
                        v => return Err(format!("--length takes full or short, not {v}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; expected one of {WORKLOADS:?}"
            ));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            length,
        })
    }
}

/// A finished run.
pub struct Report {
    /// Every output check passed and every pass reproduced the reference.
    pub correct: bool,
    /// Operations attempted, summed over timed passes.
    pub attempted: u64,
    /// Operations whose output check failed, summed over timed passes.
    pub failed: u64,
    /// Human-readable lines: every metric with its unit, then the digest.
    pub lines: Vec<String>,
    /// The metrics for the JSON result: `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Hex digest of every simulated metric and per-layer count.
    pub digest: String,
    /// Output-check failures.
    pub errors: Vec<String>,
    /// Spans of the last traced pass, when tracing.
    pub spans: Option<Recorder>,
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Runs the workload `args` names.
pub fn run(args: &Args) -> Report {
    match args.workload.as_str() {
        "noc_saturated" => drive::<crate::noc_saturated::NocSaturated>(args),
        "board_kv" => drive::<crate::board_kv::BoardKv>(args),
        "cluster_faas" => drive::<crate::cluster_faas::ClusterFaas>(args),
        other => unreachable!("Args::parse admits only known workloads, got {other}"),
    }
}

/// One pass: `SETUPS_PER_PASS` timed set-ups, then the timed run through
/// the last one. Returns the set-up times, the run's wall time (both
/// unscaled seconds) and its outcome.
fn pass<W: Workload, S: Spans>(input: &W::Input, spans: &mut S) -> (Vec<f64>, f64, Outcome) {
    let mut setups = Vec::with_capacity(SETUPS_PER_PASS);
    let mut state = None;
    for _ in 0..SETUPS_PER_PASS {
        let t = Instant::now();
        let built = spans.time("setup", NO_OP, || W::setup(input));
        setups.push(t.elapsed().as_secs_f64());
        drop(state.replace(built));
    }
    let mut state = state.expect("at least one set-up per pass");
    spans.enter("run", NO_OP);
    let t = Instant::now();
    let outcome = W::run(&mut state, input, spans);
    let wall = t.elapsed().as_secs_f64();
    spans.exit();
    drop(state);
    (setups, wall, outcome)
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Digest of everything simulated: the outcome's totals, its latency
/// samples and its per-layer counts.
fn digest(workload: &str, seed: u64, o: &Outcome) -> String {
    let mut s = format!(
        "{workload}|{seed}|{}|{}|{}|{}|",
        o.attempted, o.completed, o.failed, o.sim_cycles
    );
    for l in &o.latencies {
        let _ = write!(s, "{l},");
    }
    for (name, v) in &o.counts {
        let _ = write!(s, "|{name}={v:?}");
    }
    format!("{:016x}", fnv1a(s.as_bytes()))
}

fn count_of(o: &Outcome, name: &str) -> f64 {
    o.counts
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

fn drive<W: Workload>(args: &Args) -> Report {
    let input = W::generate(args.seed, args.length);
    let mut calibration = Calibration::default();
    // The first call faults the calibration's memory in; its time is dropped.
    calibration.time();
    let (_, _, reference) = pass::<W, Off>(&input, &mut Off);
    let reference_digest = digest(&args.workload, args.seed, &reference);
    let mut errors = reference.errors.clone();

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut traced_walls = Vec::new();
    let (mut raw_walls, mut raw_calibrations) = (Vec::new(), Vec::new());
    let mut before = calibration.time();
    let mut layer_times: Vec<Vec<f64>> = vec![Vec::new(); SPAN_METRICS.len()];
    let mut last_spans: Option<Recorder> = None;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut turn = 0usize;
    loop {
        let traced = args.trace && turn % 2 == 1;
        turn += 1;
        let mut rec = traced.then(Recorder::default);
        let (setup_times, wall, outcome) = match rec.as_mut() {
            Some(rec) => pass::<W, Recorder>(&input, rec),
            None => pass::<W, Off>(&input, &mut Off),
        };
        // Calibrations bracket the pass; their mean stands for the host's
        // speed while it ran.
        let after = calibration.time();
        let scale = CALIBRATION_S * 2.0 / (before + after);
        raw_calibrations.push(before);
        before = after;
        if let Some(rec) = rec {
            traced_walls.push(wall * scale);
            for (times, (span, _)) in layer_times.iter_mut().zip(SPAN_METRICS) {
                times.push(rec.total_s(span) * scale);
            }
            last_spans = Some(rec);
        } else {
            setups.extend(setup_times.iter().map(|t| t * scale));
            walls.push(wall * scale);
            raw_walls.push(wall);
        }
        attempted += outcome.attempted;
        // A pass that reproduces the reference digest repeats the
        // reference's check failures too, already listed once.
        failed += outcome.errors.len() as u64;
        let d = digest(&args.workload, args.seed, &outcome);
        if d != reference_digest {
            failed += 1;
            errors.push(format!(
                "pass {turn} digest {d} differs from the reference {reference_digest}"
            ));
            errors.extend(outcome.errors);
        }
        let enough = walls.len() >= MIN_PASSES && (!args.trace || traced_walls.len() >= MIN_PASSES);
        if enough && Instant::now() >= deadline {
            break;
        }
    }

    let wall = median(&walls);
    let mut lat = reference.latencies.clone();
    lat.sort_unstable();
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let e2e: Vec<(&'static str, f64, &'static str)> = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "wall_s" => wall,
                "ops_per_s" => reference.completed as f64 / wall,
                "sim_cycles_per_s" => reference.sim_cycles as f64 / wall,
                "setup_s" => median(&setups),
                "peak_rss_mb" => peak_rss_mb(),
                "sim_p50_cycles" => quantile(&lat, 0.50) as f64,
                "sim_p99_cycles" => quantile(&lat, 0.99) as f64,
                "sim_goodput_per_kcycle" => {
                    1000.0 * ratio(reference.completed, reference.sim_cycles)
                }
                "op_fail_ratio" => ratio(reference.failed, reference.attempted),
                other => unreachable!("END_TO_END lists {other} without a definition"),
            };
            (name, value, unit)
        })
        .collect();

    let mut layer: Vec<(&'static str, f64, &'static str)> = Vec::new();
    for &(name, unit) in PER_LAYER.iter() {
        let value = if let Some(i) = SPAN_METRICS.iter().position(|(_, m)| *m == name) {
            median(&layer_times[i])
        } else {
            match name {
                "noc.ns_per_flit_hop" => {
                    let hops = count_of(&reference, "noc.flit_hops");
                    let step = median(&layer_times[SPAN_NOC_STEP]);
                    if hops > 0.0 {
                        step * 1e9 / hops
                    } else {
                        0.0
                    }
                }
                "trace.overhead_ratio" => {
                    if args.trace {
                        median(&traced_walls) / wall
                    } else {
                        0.0
                    }
                }
                _ => count_of(&reference, name),
            }
        };
        layer.push((name, value, unit));
    }

    let mut lines = vec![format!(
        "workload {} seed {} length {:?}: {} untraced and {} traced passes, {} set-ups",
        args.workload,
        args.seed,
        args.length,
        walls.len(),
        traced_walls.len(),
        setups.len()
    )];
    for (name, value, unit) in &e2e {
        let extra = if name.starts_with("sim_p") {
            format!(" (n={})", lat.len())
        } else {
            String::new()
        };
        lines.push(format!("  {name:<28} {value} {unit}{extra}"));
    }
    for (name, value, unit) in &layer {
        let host = SPAN_METRICS.iter().any(|(_, m)| m == name)
            || *name == "noc.ns_per_flit_hop"
            || *name == "trace.overhead_ratio";
        if host && !args.trace {
            continue;
        }
        lines.push(format!("  {name:<28} {value} {unit}"));
    }
    lines.push(format!(
        "  host times above are scaled to a {CALIBRATION_S} s calibration; unscaled medians: wall {} s, calibration {} s",
        median(&raw_walls),
        median(&raw_calibrations)
    ));
    lines.push(format!(
        "digest {} seed={} fnv1a64={reference_digest}",
        args.workload, args.seed
    ));

    let metrics = if args.trace { layer } else { e2e };
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        errors.push("a metric is not a finite number".to_string());
    }
    if !errors.is_empty() && failed == 0 {
        failed = errors.len() as u64;
    }
    Report {
        correct: errors.is_empty(),
        attempted: attempted.max(1),
        failed,
        lines,
        metrics,
        digest: reference_digest,
        errors,
        spans: last_spans,
    }
}
