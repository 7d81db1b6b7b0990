//! Apiary's repository benchmark.
//!
//! Three named workloads drive the simulator's crates through their public
//! APIs, each from one process on one simulation thread:
//!
//! - [`noc_saturated`]: an open loop on a raw 8x8 `Noc` just under the
//!   uniform-traffic saturation knee;
//! - [`board_kv`]: a closed loop of KV clients on one 4x4 `System`, with a
//!   context-swapped shared tile, a rate-limited flooder and a revoked
//!   client;
//! - [`cluster_faas`]: an open-loop Poisson invocation schedule on a
//!   four-board `FaasSystem` with lossy fabric links.
//!
//! Every input is generated from the `--seed` before timing starts. A
//! workload pass returns an [`Outcome`] of simulated (deterministic)
//! results and output-check failures; [`runner`] repeats passes for the
//! requested host time and reports medians, with host times scaled by the
//! [`calibration`] timed between passes. See `perfbench/README.md` for
//! the metric definitions and the layer map.

pub mod board_kv;
pub mod calibration;
pub mod cluster_faas;
pub mod noc_saturated;
pub mod runner;
pub mod spans;

use spans::Spans;

/// Input size: `Full` is what the benchmark measures; `Short` is a small
/// version of the same workload for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Length {
    Full,
    Short,
}

/// What one pass of a workload produced. Everything here is simulated and
/// repeats exactly for a seed; host time is measured around the pass.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations the workload attempted (messages, KV requests or
    /// invocations; for the NoC, injection attempts).
    pub attempted: u64,
    /// Operations that completed ok.
    pub completed: u64,
    /// Operations that did not complete ok, refusals and sheds included.
    pub failed: u64,
    /// Simulated cycles from the first cycle to the drained end.
    pub sim_cycles: u64,
    /// Per-operation latency in cycles, counted from when the operation
    /// was due.
    pub latencies: Vec<u64>,
    /// Per-layer counts: `(metric name, value)`.
    pub counts: Vec<(&'static str, f64)>,
    /// Output-check failures; any entry fails the run.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records a per-layer count.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((name, value));
    }

    /// Records an output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// A benchmark workload: inputs from a seed, a timed set-up, a timed pass.
pub trait Workload {
    /// Generated inputs; built before any timing starts.
    type Input;
    /// The simulator built by [`Workload::setup`].
    type State;

    /// Builds the inputs from `seed`.
    fn generate(seed: u64, length: Length) -> Self::Input;

    /// Builds the simulator and installs tiles or functions.
    fn setup(input: &Self::Input) -> Self::State;

    /// Runs the inputs through `state` from the first cycle to the
    /// drained end, checking outputs on the way.
    fn run<S: Spans>(state: &mut Self::State, input: &Self::Input, spans: &mut S) -> Outcome;
}

/// `q`-quantile of a sorted slice by nearest rank (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(quantile(&[], 0.5), 0);
    }
}
