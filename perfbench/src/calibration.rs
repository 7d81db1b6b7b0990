//! A fixed unit of host work that shares no code with the simulator, used
//! to factor the host's own speed out of host-time metrics.
//!
//! The benchmark's host is a slice of a shared machine. Its speed drifts
//! by up to half for minutes at a time as other tenants load the shared
//! caches and memory, while its CPU clock stays put: the same pass of a
//! workload takes 0.35 s in one minute and 0.6 s in the next. No estimator
//! over one run's passes removes a drift that lasts longer than the run.
//!
//! The runner therefore times this calibration work between passes. It
//! hashes into about 8 MB at random and sorts 2.4 MB, so contention for
//! caches and memory slows it as it slows the simulator. Every host time a pass
//! measures is scaled by [`CALIBRATION_S`] over the mean of the
//! calibrations just before and just after the pass: host metrics read as
//! seconds on the host when it runs the calibration in `CALIBRATION_S`.
//! A change to the simulator moves them one for one; a change in the
//! host's load mostly cancels out. The raw seconds are printed beside the
//! scaled ones.
//!
//! The calibration allocates its memory once, up front, so its time does
//! not depend on what the workload left in the allocator.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// About the calibration's time, seconds, on the 2-vCPU Sapphire Rapids VM
/// (L2 2 MiB per core) the benchmark's bounds were set on, when its host
/// is quiet. Scaled host times are in seconds of that quiet host.
pub const CALIBRATION_S: f64 = 0.100;

/// Keys the calibration inserts and looks up per round.
const KEYS: u64 = 300_000;
/// Rounds per calibration. One round (about 25 ms) often lands wholly in a
/// quiet or a busy moment of the host; four average over more of both.
const ROUNDS: usize = 4;

/// A hash map with a fixed hasher, so its layout is the same every call.
type FixedMap = HashMap<u64, u64, BuildHasherDefault<std::collections::hash_map::DefaultHasher>>;

/// The calibration's memory, kept between calls.
pub struct Calibration {
    map: FixedMap,
    keys: Vec<u64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            map: FixedMap::with_capacity_and_hasher(KEYS as usize, Default::default()),
            keys: Vec::with_capacity(KEYS as usize),
        }
    }
}

impl Calibration {
    /// Runs the calibration work and returns its wall time, seconds.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..ROUNDS {
            self.map.clear();
            self.keys.clear();
            black_box(self.work());
        }
        t.elapsed().as_secs_f64()
    }

    /// One round: hash-table inserts and lookups at random over about
    /// 8 MB, then a sort of 2.4 MB. Returns a checksum so none of it is
    /// elided.
    fn work(&mut self) -> u64 {
        let mut r: u64 = 0x5EED;
        for i in 0..KEYS {
            r = r.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            self.map.insert(r >> 40, i);
            self.keys.push(r);
        }
        let mut acc = 0u64;
        for i in 0..KEYS {
            if let Some(x) = self.map.get(&(i * 31 % (1 << 24))) {
                acc = acc.wrapping_add(*x);
            }
        }
        self.keys.sort_unstable();
        acc ^ self.keys[self.keys.len() / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::Calibration;

    #[test]
    fn the_calibration_does_the_same_work_every_call() {
        let mut c = Calibration::default();
        let first = c.work();
        c.map.clear();
        c.keys.clear();
        assert_eq!(c.work(), first);
        assert!(c.time() > 0.0);
    }
}
