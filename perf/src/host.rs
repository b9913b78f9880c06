//! The host record printed with every run: what machine produced the
//! numbers, whether another tenant stole CPU time during the run, how fast
//! the host runs fixed work right now, and how much memory the process
//! peaked at. Linux `/proc` only; elsewhere the readers return `None` and
//! the run reports the fields as unknown.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// Slots of the reference kernel's table: 4 KiB, so it stays in L1.
const REF_SLOTS: usize = 1 << 10;

/// Steps of one reference pass (about 5 ms).
const REF_STEPS: u32 = 1 << 20;

/// Nanoseconds one reference pass takes at the speed the benchmark reports
/// timings at: the median, over 120 runs on the calibration host (Intel
/// Xeon, 2 vCPUs), of each run's fastest pass.
pub const REF_NOMINAL_NS: f64 = 5_100_000.0;

/// Wall time of one pass of fixed work that measures how fast the host runs
/// at the moment: hashing, read-modify-writes into a table in L1 and a
/// data-dependent branch into a floating-point chain. The host's speed
/// drifts by up to a fifth over minutes, for compute-bound and memory-bound
/// code alike, so timings taken minutes apart compare only once divided by
/// this kernel's time from the same run. Of the kernels tried, this
/// cache-resident one tracked the drift best; ones that also missed the
/// caches varied with cache contention the replay did not share. Passes on
/// two threads at once ran between 1.0× and 1.7× slower than one, as the
/// host placed the two vCPUs, but the 2-worker replay, which runs two
/// threads only inside its fan-out, felt a fraction of that, so scaling by
/// them overcorrected. It depends on nothing outside this file, so no
/// change to the measured program moves it.
pub fn reference_pass_ns() -> u64 {
    let mut table = [0u32; REF_SLOTS];
    let t = Instant::now();
    let (mut x, mut f) = (0x9E37_79B9_7F4A_7C15u64, 1.0f64);
    for _ in 0..REF_STEPS {
        // splitmix64
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let slot = &mut table[z as usize & (REF_SLOTS - 1)];
        *slot = slot.wrapping_add(z as u32);
        if *slot & 1 == 0 {
            f = f * 0.999_999 + f64::from(*slot >> 16) * 1e-9;
        } else {
            f -= 1e-7;
        }
    }
    black_box((f, &table));
    t.elapsed().as_nanos() as u64
}

/// CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Build profile of this binary.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Aggregate `(steal, total)` jiffies from the `cpu` line of `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user/nice.
    let steal = *fields.get(7)?;
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

/// Share of CPU time stolen by the hypervisor between two samples.
pub fn steal_fraction(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    after.0.saturating_sub(before.0) as f64 / total.max(1) as f64
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kib: u64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib as f64 / 1024.0)
}
