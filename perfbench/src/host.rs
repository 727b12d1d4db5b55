//! Contention-normalized host time.
//!
//! The benchmark host is a 2-vCPU KVM guest whose speed drifts: for
//! stretches of seconds to over a minute the same single-threaded code
//! runs 1.4–1.9x slower, with no CPU steal or run-queue wait to show for
//! it (thread CPU time rises with wall time). Each vCPU slows on its
//! own, as a shared physical core does when its sibling thread is busy.
//! Medians of raw op latencies then depend on how much of a run fell
//! into slow stretches: registry cold-compile medians of 15 s windows
//! spread 26–40% (quartile distance over median).
//!
//! A run first pins itself, and every thread it starts later, to the
//! vCPU it is running on, so the probes below see the CPU the measured
//! work runs on and no segment migrates between vCPUs midway.
//!
//! Every timed segment is bracketed by a short probe kernel,
//! owned by the benchmark and independent of the code under test. The
//! segment's normalized time is its raw time scaled by
//! [`REFERENCE_PROBE`] over the mean of its two probe readings: host
//! milliseconds at the reference host's quiet speed. On the same data
//! the normalized medians spread 5–9%. The probe slows less than the
//! compiler under contention (about 1.45x against 1.8x), so a run spent
//! entirely in a slow stretch still reads up to ~20% high; the raw
//! times are reported next to the normalized ones.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The probe's reading on the quiet reference host (2-vCPU Sapphire
/// Rapids KVM guest); normalized times are in this host's milliseconds.
pub const REFERENCE_PROBE: Duration = Duration::from_micros(250);

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and the threads it spawns afterwards, to
/// the CPU it runs on. Returns that CPU, or `None` when the platform
/// refuses (the run then proceeds unpinned).
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads the
    // calling thread's state.
    let cpu = usize::try_from(unsafe { sched_getcpu() })
        .ok()
        .filter(|&c| c < 64)?;
    let mask: u64 = 1 << cpu;
    // SAFETY: `mask` is an initialized CPU set of `size_of::<u64>()`
    // bytes that lives across the call; the kernel only reads it. Pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
    (rc == 0).then_some(cpu)
}

/// Hash-map and sort churn, about 0.25 ms on the reference host: the
/// allocation- and branch-heavy mix the compiler itself runs.
fn probe_kernel(seed: u64) -> u64 {
    let mut buckets: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut x = seed | 1;
    for i in 0..6_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        buckets.entry(x % 1024).or_default().push(i ^ x);
    }
    let mut sums: Vec<u64> = buckets
        .values()
        .map(|v| v.iter().fold(0u64, |a, &b| a.wrapping_add(b)))
        .collect();
    sums.sort_unstable();
    sums[sums.len() / 2]
}

/// The fastest of two probe kernels: how fast the host runs right now.
pub fn probe() -> Duration {
    (0..2)
        .map(|k| {
            let t = Instant::now();
            black_box(probe_kernel(black_box(k + 7)));
            t.elapsed()
        })
        .min()
        .expect("two probes ran")
}

/// Raw and normalized host time, summed over segments.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostTime {
    /// Wall time as measured.
    pub raw: Duration,
    /// Wall time scaled to the reference host's quiet speed.
    pub normalized: Duration,
}

impl HostTime {
    /// Runs `f` as one timed segment between two probes and adds its
    /// time.
    pub fn segment<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let before = probe();
        let start = Instant::now();
        let out = f();
        let raw = start.elapsed();
        let contention = (before + probe()).as_secs_f64() / 2.0 / REFERENCE_PROBE.as_secs_f64();
        self.raw += raw;
        self.normalized += raw.div_f64(contention);
        out
    }

    /// Raw milliseconds.
    pub fn raw_ms(&self) -> f64 {
        self.raw.as_secs_f64() * 1e3
    }

    /// Normalized milliseconds.
    pub fn ms(&self) -> f64 {
        self.normalized.as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_add_raw_and_normalized_time() {
        let mut t = HostTime::default();
        let v = t.segment(|| {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(v, 7);
        t.segment(|| std::thread::sleep(Duration::from_millis(2)));
        assert!(t.raw >= Duration::from_millis(4));
        assert!(t.normalized > Duration::ZERO);
    }
}
