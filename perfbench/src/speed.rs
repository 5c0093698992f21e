//! Machine-speed calibration.
//!
//! On a shared 2-vCPU virtual machine the same request runs up to 1.8×
//! slower for tens of seconds at a time while neighbours load the host
//! (steal time stays near 0 %, so CPU time swings with wall time and
//! cannot correct it). The benchmark therefore interleaves a fixed probe —
//! plain standard-library work that never calls the program under test —
//! with its requests, and reports every time scaled by
//! `NOMINAL_PROBE_MS / local probe time`: the time the request would have
//! taken at the probe's nominal speed. A change to the program moves the
//! request times but never the probe, so the scaled times still show it.
//! The unscaled figures are reported as per-layer metrics.

use std::hint::black_box;
use std::time::Instant;

/// Probe time the scaled figures are expressed at: the probe's typical
/// time on the 2-vCPU reference host in a quiet period.
pub const NOMINAL_PROBE_MS: f64 = 0.8;

/// One probe per this much request time, so long requests are bracketed
/// by as many samples as short ones.
const PROBE_EVERY_MS: f64 = 20.0;

/// Probe samples within this many seconds of a request give its local
/// probe time.
const HALF_WINDOW_S: f64 = 1.0;

/// A fixed mix of the operations the analyses spend their time on:
/// dependent random reads and writes into a 512 KiB table, hash-map
/// updates and a sort (latency-bound), then vectorizable first/last
/// min/max lane updates like the dense engine's pass 1 (throughput-bound).
#[inline(never)]
fn probe_work() -> u64 {
    let mut table = vec![0u32; 1 << 17];
    let mask = table.len() - 1;
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0u64;
    for i in 0..100_000u32 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let k = (x >> 40) as usize & mask;
        table[k] = table[k].wrapping_add(i);
        acc ^= u64::from(table[(k * 7 + 3) & mask]);
    }
    let mut m = std::collections::HashMap::new();
    for i in 0..3000u64 {
        *m.entry(i * 31 % 1021).or_insert(0u64) += i;
    }
    let mut v: Vec<u64> = (0..3000).map(|i| (i * 2_654_435_761_u64) % 1000).collect();
    v.sort_unstable();
    let mut first = vec![u32::MAX; 4096];
    let mut last = vec![0u32; 4096];
    let mut t = 0u32;
    for _ in 0..300 {
        for (k, (f, l)) in first.iter_mut().zip(last.iter_mut()).enumerate() {
            let s = t.wrapping_add(k as u32);
            *f = (*f).min(s);
            *l = (*l).max(s);
        }
        t = t.wrapping_add(black_box(7));
    }
    let lanes: u64 = first
        .iter()
        .zip(&last)
        .map(|(f, l)| u64::from(l.wrapping_sub(*f)))
        .sum();
    acc + m.len() as u64 + v[1500] + lanes
}

/// Runs the probe once on each of `threads` threads at the same time, as
/// a workload on that many threads uses the machine; returns the wall time
/// in ms until all finished.
pub fn probe_ms(threads: usize) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(|| black_box(probe_work()));
        }
        black_box(probe_work());
    });
    t0.elapsed().as_secs_f64() * 1e3
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Probe samples taken between the requests of one timed pass.
pub struct Meter {
    threads: usize,
    epoch: Instant,
    /// `(seconds since epoch, probe ms)`, in time order.
    probes: Vec<(f64, f64)>,
}

impl Meter {
    pub fn new(threads: usize) -> Self {
        Meter {
            threads,
            epoch: Instant::now(),
            probes: Vec::new(),
        }
    }

    /// Seconds since the meter started.
    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Probes after a request that took `latency_ms`: once per
    /// [`PROBE_EVERY_MS`] of it, at least once.
    pub fn after_request(&mut self, latency_ms: f64) {
        let count = (latency_ms / PROBE_EVERY_MS).ceil().clamp(1.0, 100.0) as usize;
        for _ in 0..count {
            let at = self.now_s();
            self.probes.push((at, probe_ms(self.threads)));
        }
    }

    /// Scale factor of a request that ran from `start_s` to `end_s`:
    /// `NOMINAL_PROBE_MS` over the median probe within
    /// [`HALF_WINDOW_S`] of it.
    pub fn factor(&self, start_s: f64, end_s: f64) -> f64 {
        let lo = self
            .probes
            .partition_point(|&(t, _)| t < start_s - HALF_WINDOW_S);
        let hi = self
            .probes
            .partition_point(|&(t, _)| t <= end_s + HALF_WINDOW_S);
        // The probes right after the request always fall in the window.
        let mut window: Vec<f64> = self.probes[lo..hi].iter().map(|&(_, ms)| ms).collect();
        NOMINAL_PROBE_MS / median(&mut window)
    }
}

/// One scale factor from a whole series of probes.
pub fn factor(probes: &[f64]) -> f64 {
    NOMINAL_PROBE_MS / median(&mut probes.to_vec())
}
