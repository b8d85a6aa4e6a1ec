//! How fast this host runs right now.
//!
//! The host's cores are shared: while another tenant runs on a sibling
//! hyperthread, every instruction stream here slows by 1.4-1.8x, for
//! tens of seconds at a time, so raw timings of one commit swing more
//! between runs than the regressions the benchmark must catch. Each
//! trial is therefore bracketed by short bursts of a fixed calibration
//! loop, written here and sharing no code with the repository, and
//! end-to-end timings are scaled to an undisturbed core: a time is
//! divided, and a rate multiplied, by the trial's slowdown. The raw
//! values and the slowdowns are kept in the result file.
//!
//! The workloads feel a neighbour less than the calibration loop does:
//! over 10-run sets at burst slowdowns from 1.0 to 2.4, their raw rates
//! followed the bursts' slowdown to the power 0.8 (serve-mixed: 0.6),
//! and scaling by exactly that power gave the narrowest run-to-run
//! spread. A workload's slowdown is therefore the bursts' raised to its
//! [`Calibrator::new`] sensitivity.

use crate::util::{percentile, sorted_us};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one burst takes on an undisturbed core of the reference host
/// (a 2-vCPU KVM guest on an Intel Xeon, family 6 model 143).
pub const NOMINAL_BURST_S: f64 = 0.001;

/// How strongly the compile, exec and serve-hot workloads follow the
/// calibration loop's slowdown.
pub const SENSITIVITY: f64 = 0.8;
/// serve-mixed splits one core between the event loop and compile
/// workers, and part of its latency is waiting for the scheduler, which
/// a slower core does not stretch.
pub const MIXED_SENSITIVITY: f64 = 0.6;

/// The calibration loop's state, kept between bursts so a burst
/// allocates nothing new: map updates, small allocations and
/// formatting, like a compiler, plus a lane loop over a buffer, like
/// the executor.
#[derive(Debug)]
pub struct Calibrator {
    lanes: Vec<i128>,
    map: BTreeMap<u64, Vec<u64>>,
    x: u64,
    offset: usize,
    sensitivity: f64,
}

impl Calibrator {
    /// A calibrator for a workload whose timings follow the bursts'
    /// slowdown to the power `sensitivity`.
    pub fn new(sensitivity: f64) -> Calibrator {
        let lanes = (0..1 << 16).map(|i| i128::from(i % 1000)).collect();
        let x = 0x9E37_79B9_7F4A_7C15;
        Calibrator { lanes, map: BTreeMap::new(), x, offset: 0, sensitivity }
    }

    /// Run one burst of fixed work; returns its seconds.
    fn burst(&mut self) -> f64 {
        let t = Instant::now();
        let mut acc = 0u64;
        for i in 0..4000u64 {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let k = self.x % 4096;
            let bucket = self.map.entry(k).or_default();
            bucket.push(self.x);
            if bucket.len() > 8 {
                bucket.clear();
            }
            acc = acc.wrapping_add(bucket.iter().sum::<u64>()) ^ i;
            acc = acc.wrapping_add(format!("{k}:{acc}").len() as u64);
            if i % 16 == 0 {
                let n = self.lanes.len();
                for v in &mut self.lanes[self.offset..self.offset + 512] {
                    *v = ((*v * 181 + 128) >> 8).clamp(0, 65535);
                    acc ^= (*v & 1) as u64;
                }
                self.offset = (self.offset + 512) % n;
            }
        }
        black_box(acc);
        t.elapsed().as_secs_f64()
    }

    /// The workload's slowdown now (1.0 undisturbed, 1.5 at two thirds
    /// speed), from the quickest of three bursts against an undisturbed
    /// core. The quickest burst follows the host's spell and ignores a
    /// stray interrupt or a daemon finishing its last reply.
    pub fn slowdown(&mut self) -> f64 {
        let quickest = (0..3).map(|_| self.burst()).fold(f64::INFINITY, f64::min);
        (quickest / NOMINAL_BURST_S).powf(self.sensitivity)
    }
}

/// Per-trial bookkeeping: the slowdown bracketing each trial, its raw
/// and scaled rates, and its scaled latency percentiles.
#[derive(Debug, Default)]
pub struct Trials {
    pub slowdowns: Vec<f64>,
    pub raw_rates: Vec<f64>,
    pub rates: Vec<f64>,
    pub p50_us: Vec<f64>,
    pub p99_us: Vec<f64>,
}

impl Trials {
    /// Record one trial that ran `ops` operations in `secs` at
    /// `slowdown`, scaling its latency samples (nanoseconds, possibly in
    /// several parts) in place.
    pub fn record(&mut self, ops: u64, secs: f64, slowdown: f64, samples: &mut [&mut [u32]]) {
        for s in samples.iter_mut().flat_map(|part| part.iter_mut()) {
            *s = (f64::from(*s) / slowdown) as u32;
        }
        let all: Vec<u32> = samples.iter().flat_map(|part| part.iter().copied()).collect();
        let us = sorted_us(&all);
        self.p50_us.push(percentile(&us, 0.5));
        self.p99_us.push(percentile(&us, 0.99));
        let raw = ops as f64 / secs;
        self.slowdowns.push(slowdown);
        self.raw_rates.push(raw);
        self.rates.push(raw * slowdown);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trials_scale_rates_up_and_times_down() {
        let mut t = Trials::default();
        let (mut a, mut b) = ([3000u32], [1500u32, 6000]);
        t.record(100, 2.0, 1.5, &mut [&mut a, &mut b]);
        assert_eq!((a, b), ([2000], [1000, 4000]));
        assert_eq!((t.p50_us[0], t.p99_us[0]), (2.0, 4.0));
        assert_eq!(t.raw_rates, [50.0]);
        assert_eq!(t.rates, [75.0]);
        assert_eq!(t.slowdowns, [1.5]);
    }

    #[test]
    fn a_burst_measures_something() {
        let mut c = Calibrator::new(SENSITIVITY);
        let s = c.slowdown();
        assert!(s.is_finite() && s > 0.0);
    }
}
