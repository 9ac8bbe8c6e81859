//! Machine-speed probe, and the scale that puts timings on a nominal
//! machine.
//!
//! On a shared 2-vCPU VM the speed of each vCPU moves by up to 1.7x,
//! for seconds to minutes at a time, whatever the benchmark does. A
//! fixed kernel that shares no code with the program, timed on the
//! client thread between rounds (when the program's own threads are
//! idle, and on the one CPU they all run on), measures the speed the
//! rounds ran at. Each measured sample is scaled by the nominal over
//! the probe time of its one-second window at the matching quantile:
//! samples for medians (and round time for rates) by the window's probe
//! median, samples for p95 tails by its p95, since a tail is set by the
//! slow periods and the probe's p95 tracks those. Each set-up is scaled
//! by the probes taken around it. Runs made in different machine states
//! then compare. The probe does not depend on the program: a change
//! that makes the program slower reads slower at any machine speed. A
//! change that kept program threads busy between rounds would slow the
//! probe too; `probe_p50_ns` in the provenance shows it.

use crate::stats::{quantile, ratio};
use std::time::Instant;

/// Seconds between probes during a measured phase.
pub const EVERY_S: f64 = 0.02;
/// Fewest probes a window of the measured phase needs to have its own
/// scale.
pub const MIN_PER_WINDOW: usize = 10;
/// Probes taken right before, and again right after, each set-up.
pub const AROUND_SETUP: usize = 5;
/// The probe's median time on the nominal machine, nanoseconds.
pub const NOMINAL_P50_NS: f64 = 150_000.0;
/// The probe's 95th-percentile time on the nominal machine, nanoseconds.
pub const NOMINAL_P95_NS: f64 = 175_000.0;

/// Factors that put one run's times on the nominal machine.
#[derive(Clone, Copy)]
pub struct Scale {
    /// For medians, set-up times and (inverted) rates.
    pub p50: f64,
    /// For p95 tails.
    pub p95: f64,
}

impl Scale {
    /// The scale for a stretch of time whose probes took `probes`
    /// nanoseconds.
    pub fn of(probes: &[u64]) -> Scale {
        Scale {
            p50: ratio(NOMINAL_P50_NS, quantile(probes, 0.5)),
            p95: ratio(NOMINAL_P95_NS, quantile(probes, 0.95)),
        }
    }
}

/// Run the probe kernel once and return its time in nanoseconds: a
/// fixed xorshift fill, sort and hash-map build and lookup over 32 KiB.
pub fn once() -> u64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut v: Vec<u64> = (0..4_096)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    let m: std::collections::HashMap<u64, u64> = v
        .iter()
        .take(1_024)
        .enumerate()
        .map(|(i, k)| (*k, i as u64))
        .collect();
    let hits = v
        .iter()
        .filter_map(|k| m.get(k))
        .fold(0u64, |a, i| a.wrapping_add(*i));
    std::hint::black_box(hits);
    t.elapsed().as_nanos() as u64
}
