//! # iguard-telemetry — the observability substrate
//!
//! The paper's pitch is a resource budget (TCAM entries, SRAM, per-packet
//! actions — §3.2.3); this crate is how the reproduction *measures* itself
//! against that budget at runtime. Like the rest of the workspace it has
//! **zero external dependencies** and is safe to thread through every hot
//! path:
//!
//! * [`Counter`] — a relaxed atomic `u64`; `inc`/`add` compile to one
//!   `lock xadd`. Packet-path events are counted in plain fields instead
//!   and published in bulk once per batch (the switch pipeline's publish).
//! * [`Histogram`] — fixed power-of-two buckets over `u64` values (sizes,
//!   latencies, frontier widths); recording is three relaxed atomics.
//! * [`Span`] — a named timer accumulating count / total / min / max
//!   nanoseconds; [`Span::time`] wraps a closure and skips the clock
//!   entirely when telemetry is disabled.
//! * [`registry`] — a process-global, name-keyed registry that snapshots
//!   every metric to JSON ([`registry::snapshot`] / [`Snapshot::to_json`]).
//!
//! ## Invariant-checked counters
//!
//! Snapshots are not just bags of numbers: [`Snapshot::verify`] checks the
//! internal invariants (histogram bucket sums equal their counts, span
//! min ≤ mean ≤ max, bucket boundaries cover the recorded range) and
//! [`Snapshot::verify_monotonic_since`] checks that counters never move
//! backwards between two snapshots of the same process. The switch suite
//! `crates/switch/tests/telemetry_snapshot.rs` runs both over snapshots
//! taken after every instrumented switch path, so a broken counter fails
//! `cargo test`.
//!
//! ## Determinism
//!
//! Telemetry must never perturb results: no call in this crate touches an
//! RNG stream or reorders work, so a pipeline run with recording on is
//! byte-identical to one with recording off at any worker count (covered
//! by `crates/core/tests/telemetry_determinism.rs`).
//!
//! ## Disabling
//!
//! `IGUARD_TELEMETRY=0` (or `off`/`false`) turns [`registry::snapshot`]
//! into a no-op (`None`) and makes [`Span::time`] skip its clock reads;
//! counters still increment — a relaxed atomic add is cheaper than a
//! branch that would have to be checked per call site anyway. Tests and
//! benches can override the gate in-process with [`set_enabled`].

#![forbid(unsafe_code)]

pub mod counter;
pub mod histogram;
pub mod json;
pub mod registry;
pub mod span;

pub use counter::Counter;
pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{Snapshot, SpanSnapshot};
pub use span::Span;

use std::sync::atomic::{AtomicU8, Ordering};

/// Tri-state gate: 0 = unread, 1 = enabled, 2 = disabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether snapshots (and span clocks) are live. Defaults to enabled; the
/// `IGUARD_TELEMETRY` env var (`0`, `off`, `false`, case-insensitive)
/// disables it. Read once, then cached in an atomic.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = match std::env::var("IGUARD_TELEMETRY") {
                Ok(v) => {
                    let v = v.trim().to_ascii_lowercase();
                    !(v == "0" || v == "off" || v == "false")
                }
                Err(_) => true,
            };
            ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// Overrides the gate in-process (tests, benches). Global, not
/// scoped: callers comparing enabled/disabled runs should be serial.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Serialises tests that flip the global gate (the `cargo test` harness
/// runs tests in parallel threads).
#[cfg(test)]
pub(crate) fn test_gate_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_toggles() {
        let _g = test_gate_lock();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }
}
