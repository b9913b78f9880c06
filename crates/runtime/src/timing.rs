//! Minimal benchmark harness for `harness = false` bench targets.
//!
//! One warmup call sizes the iteration count so each measurement loop takes
//! roughly [`TARGET_RUN`]; the harness then reports min/mean/max ns per
//! iteration. No statistics beyond that — the repo's benches compare
//! order-of-magnitude costs and serial-vs-parallel ratios, not microseconds
//! of jitter.

use std::time::{Duration, Instant};

/// Target wall-clock budget for one measured run.
pub const TARGET_RUN: Duration = Duration::from_millis(200);

/// Hard cap on iterations per run (cheap bodies would otherwise spin long).
pub const MAX_ITERS: usize = 100_000;

/// Result of one [`bench()`] measurement.
#[derive(Clone, Debug)]
pub struct Timing {
    pub label: String,
    pub iters: usize,
    pub mean_ns: f64,
    pub min_ns: f64,
    pub max_ns: f64,
}

impl std::fmt::Display for Timing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<44} {:>12} /iter  (min {}, max {}, {} iters)",
            self.label,
            fmt_ns(self.mean_ns),
            fmt_ns(self.min_ns),
            fmt_ns(self.max_ns),
            self.iters
        )
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Measure `f`, printing and returning the timing.
pub fn bench<R>(label: &str, mut f: impl FnMut() -> R) -> Timing {
    // Warmup doubles as calibration.
    let t0 = Instant::now();
    std::hint::black_box(f());
    let once = t0.elapsed().max(Duration::from_nanos(1));

    let iters = (TARGET_RUN.as_nanos() / once.as_nanos()).clamp(1, MAX_ITERS as u128) as usize;
    let (mut min, mut max, mut total) = (f64::INFINITY, 0.0f64, 0.0f64);
    for _ in 0..iters {
        let t = Instant::now();
        std::hint::black_box(f());
        let ns = t.elapsed().as_nanos() as f64;
        min = min.min(ns);
        max = max.max(ns);
        total += ns;
    }
    let timing = Timing {
        label: label.to_string(),
        iters,
        mean_ns: total / iters as f64,
        min_ns: min,
        max_ns: max,
    };
    println!("{timing}");
    timing
}

/// Print a section header, grouping related benches in the output.
pub fn group(name: &str) {
    println!("\n== {name} ==");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_sane_numbers() {
        let t = bench("spin", || {
            std::hint::black_box((0..1000u64).fold(0u64, |a, b| a.wrapping_add(b)))
        });
        assert!(t.iters >= 1);
        assert!(t.min_ns <= t.mean_ns && t.mean_ns <= t.max_ns);
        assert!(t.mean_ns > 0.0);
    }

    #[test]
    fn display_units() {
        assert!(fmt_ns(12.0).contains("ns"));
        assert!(fmt_ns(12_000.0).contains("µs"));
        assert!(fmt_ns(12_000_000.0).contains("ms"));
        assert!(fmt_ns(2_000_000_000.0).contains("s"));
    }
}
