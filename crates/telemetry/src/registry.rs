//! The process-global metric registry and its JSON snapshots.
//!
//! Metrics are registered lazily by name and live for the process lifetime
//! (handles are leaked `&'static` references), so hot paths pay the
//! registry lock **once** — the [`counter!`](crate::counter!),
//! [`histogram!`](crate::histogram!) and [`span!`](crate::span!) macros
//! cache the handle in a call-site `OnceLock` and every subsequent hit is
//! a single atomic load plus the metric update itself.
//!
//! Naming convention: `crate.subsystem.event`, e.g. `flow.table.collision`
//! or `switch.pipeline.path.blue`. Names must be `'static` literals; the
//! registry deliberately has no string-formatting path that would allocate
//! per event.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::counter::Counter;
use crate::histogram::{Histogram, HistogramSnapshot};
use crate::json;
use crate::span::Span;

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
    spans: Mutex<BTreeMap<&'static str, &'static Span>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// The counter registered under `name`, creating it on first use. The
/// returned handle is `'static`: fetch once, increment forever.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut map = registry().counters.lock().unwrap();
    map.entry(name).or_insert_with(|| Box::leak(Box::new(Counter::new())))
}

/// The histogram registered under `name`, creating it on first use.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut map = registry().histograms.lock().unwrap();
    map.entry(name).or_insert_with(|| Box::leak(Box::new(Histogram::new())))
}

/// The span timer registered under `name`, creating it on first use.
pub fn span(name: &'static str) -> &'static Span {
    let mut map = registry().spans.lock().unwrap();
    map.entry(name).or_insert_with(|| Box::leak(Box::new(Span::new())))
}

/// Cached-handle counter access: `counter!("flow.table.collision").inc()`.
/// After the first call the cost is one `OnceLock` load + the atomic add.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry::counter($name))
    }};
}

/// Cached-handle histogram access: `histogram!("x").record(v)`.
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry::histogram($name))
    }};
}

/// Cached-handle span access: `span!("core.fit").time(|| ...)`.
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Span> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::registry::span($name))
    }};
}

/// A frozen [`Span`] state.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanSnapshot {
    pub count: u64,
    pub total_ns: u64,
    pub min_ns: Option<u64>,
    pub max_ns: Option<u64>,
}

impl SpanSnapshot {
    pub fn mean_ns(&self) -> Option<f64> {
        (self.count > 0).then(|| self.total_ns as f64 / self.count as f64)
    }

    fn verify(&self, name: &str) -> Result<(), String> {
        if self.count == 0 {
            return Ok(());
        }
        let (min, max) = (self.min_ns.unwrap_or(u64::MAX), self.max_ns.unwrap_or(0));
        if min > max {
            return Err(format!("span {name}: min {min} > max {max}"));
        }
        let mean = self.mean_ns().unwrap();
        if mean + 1e-9 < min as f64 || mean - 1e-9 > max as f64 {
            return Err(format!("span {name}: mean {mean} outside [{min}, {max}]"));
        }
        Ok(())
    }
}

/// A point-in-time copy of every registered metric.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    pub spans: BTreeMap<String, SpanSnapshot>,
}

/// Snapshots the registry, or `None` when telemetry is disabled
/// (`IGUARD_TELEMETRY=0`) — the promised no-op.
pub fn snapshot() -> Option<Snapshot> {
    if !crate::enabled() {
        return None;
    }
    Some(snapshot_unchecked())
}

/// Snapshots regardless of the gate (normal callers want [`snapshot`]).
pub fn snapshot_unchecked() -> Snapshot {
    let reg = registry();
    let counters =
        reg.counters.lock().unwrap().iter().map(|(&k, c)| (k.to_string(), c.get())).collect();
    let histograms = reg
        .histograms
        .lock()
        .unwrap()
        .iter()
        .map(|(&k, h)| (k.to_string(), h.snapshot()))
        .collect();
    let spans = reg
        .spans
        .lock()
        .unwrap()
        .iter()
        .map(|(&k, s)| {
            (
                k.to_string(),
                SpanSnapshot {
                    count: s.count(),
                    total_ns: s.total_ns(),
                    min_ns: s.min_ns(),
                    max_ns: s.max_ns(),
                },
            )
        })
        .collect();
    Snapshot { counters, histograms, spans }
}

impl Snapshot {
    /// Checks every metric's internal invariants. Valid when writers are
    /// quiescent (between pipeline runs, before serialising a report).
    pub fn verify(&self) -> Result<(), String> {
        for (name, h) in &self.histograms {
            h.verify(name)?;
        }
        for (name, s) in &self.spans {
            s.verify(name)?;
        }
        Ok(())
    }

    /// Checks that this snapshot could follow `prev` in the same process:
    /// every counter/histogram/span total is monotonically non-decreasing
    /// and no metric disappeared. (A [`Counter::reset`] or
    /// [`Histogram::reset`] in between voids this.)
    pub fn verify_monotonic_since(&self, prev: &Snapshot) -> Result<(), String> {
        for (name, &old) in &prev.counters {
            match self.counters.get(name) {
                None => return Err(format!("counter {name} disappeared")),
                Some(&new) if new < old => {
                    return Err(format!("counter {name} went backwards: {old} -> {new}"))
                }
                _ => {}
            }
        }
        for (name, old) in &prev.histograms {
            match self.histograms.get(name) {
                None => return Err(format!("histogram {name} disappeared")),
                Some(new) if new.count < old.count => {
                    return Err(format!(
                        "histogram {name} count went backwards: {} -> {}",
                        old.count, new.count
                    ))
                }
                _ => {}
            }
        }
        for (name, old) in &prev.spans {
            match self.spans.get(name) {
                None => return Err(format!("span {name} disappeared")),
                Some(new) if new.count < old.count || new.total_ns < old.total_ns => {
                    return Err(format!("span {name} went backwards"))
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Serialises the snapshot as a pretty-printed standalone JSON
    /// document.
    pub fn to_json(&self) -> String {
        let mut counters = json::Object::new();
        for (name, &v) in &self.counters {
            counters.u64(name, v);
        }
        let mut histograms = json::Object::new();
        for (name, h) in &self.histograms {
            let mut o = json::Object::new();
            o.u64("count", h.count)
                .u64("total", h.total)
                .opt_u64("min", h.min)
                .opt_u64("max", h.max)
                .raw("buckets", json::u64_array(&h.buckets));
            histograms.raw(name, o.render(2));
        }
        let mut spans = json::Object::new();
        for (name, s) in &self.spans {
            let mut o = json::Object::new();
            o.u64("count", s.count)
                .u64("total_ns", s.total_ns)
                .opt_u64("min_ns", s.min_ns)
                .opt_u64("max_ns", s.max_ns);
            match s.mean_ns() {
                Some(m) => o.f64("mean_ns", m),
                None => o.raw("mean_ns", "null"),
            };
            spans.raw(name, o.render(2));
        }
        let mut root = json::Object::new();
        root.raw("counters", counters.render(1))
            .raw("histograms", histograms.render(1))
            .raw("spans", spans.render(1));
        root.render(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_returns_same_handle() {
        let a = counter("test.registry.same");
        let b = counter("test.registry.same");
        assert!(std::ptr::eq(a, b));
        a.inc();
        assert_eq!(b.get(), a.get());
    }

    #[test]
    fn macros_cache_handles() {
        let h1 = counter!("test.registry.macro");
        let h2 = counter!("test.registry.macro");
        assert!(std::ptr::eq(h1, h2));
        h1.add(3);
        assert!(counter("test.registry.macro").get() >= 3);
    }

    #[test]
    fn snapshot_sees_all_metric_kinds() {
        counter("test.snap.counter").add(5);
        histogram("test.snap.hist").record(9);
        span("test.snap.span").record_ns(1000);
        let s = snapshot_unchecked();
        assert!(s.counters["test.snap.counter"] >= 5);
        assert!(s.histograms["test.snap.hist"].count >= 1);
        assert!(s.spans["test.snap.span"].count >= 1);
        s.verify().unwrap();
    }

    #[test]
    fn snapshot_respects_gate() {
        let _g = crate::test_gate_lock();
        crate::set_enabled(false);
        assert!(snapshot().is_none());
        crate::set_enabled(true);
        assert!(snapshot().is_some());
    }

    #[test]
    fn monotonic_check_accepts_growth_and_rejects_regress() {
        counter("test.mono.c").add(1);
        let before = snapshot_unchecked();
        counter("test.mono.c").add(1);
        let after = snapshot_unchecked();
        after.verify_monotonic_since(&before).unwrap();
        let err = before.verify_monotonic_since(&after);
        // `before` has strictly fewer test.mono.c events than `after`.
        assert!(err.unwrap_err().contains("went backwards"));
    }

    #[test]
    fn monotonic_check_rejects_disappearance() {
        counter("test.mono.gone").add(1);
        let before = snapshot_unchecked();
        let mut after = snapshot_unchecked();
        after.counters.remove("test.mono.gone");
        assert!(after.verify_monotonic_since(&before).unwrap_err().contains("disappeared"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        counter("test.json.c").add(2);
        histogram("test.json.h").record(3);
        span("test.json.s").record_ns(7);
        let s = snapshot_unchecked();
        let doc = s.to_json();
        assert!(doc.contains("\"test.json.c\""));
        assert!(doc.contains("\"counters\""));
        assert!(doc.contains("\"buckets\""));
        assert!(doc.contains("\"mean_ns\""));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert!(doc.starts_with('{') && doc.ends_with('}'));
    }

    /// Recording from many threads, snapshotting after the scope joins,
    /// passes every invariant — the quiescence contract in practice.
    #[test]
    fn concurrent_recording_then_verify() {
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..250u64 {
                        counter!("test.conc.c").inc();
                        histogram!("test.conc.h").record(i);
                        span!("test.conc.s").record_ns(i * 10);
                    }
                });
            }
        });
        let s = snapshot_unchecked();
        s.verify().unwrap();
        assert!(s.counters["test.conc.c"] >= 1000);
        assert!(s.histograms["test.conc.h"].count >= 1000);
    }
}
