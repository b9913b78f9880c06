//! Telemetry must be a pure observer: turning recording on or off, or
//! changing the worker count, must not change a single bit of the trained
//! forest, its distilled labels, or the compiled whitelist.

use iguard_core::forest::{IGuardConfig, IGuardForest};
use iguard_core::rules::RuleSet;
use iguard_core::teacher::OracleTeacher;
use iguard_runtime::par::with_workers;
use iguard_runtime::rng::Rng;
use iguard_runtime::Dataset;

/// Both tests flip the process-global telemetry gate; the harness runs
/// them on parallel threads, so they serialise on this lock.
fn gate_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn uniform2(n: usize, rng: &mut Rng) -> Dataset {
    let mut d = Dataset::new(2);
    for _ in 0..n {
        d.push_row(&[rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
    }
    d
}

/// Full pipeline (fit → distill → rule compilation → TSV) rendered to a
/// byte-comparable string.
fn pipeline_fingerprint(data: &Dataset) -> String {
    let teacher = OracleTeacher(|x: &[f32]| x[0] > 0.6);
    let cfg = IGuardConfig { n_trees: 7, subsample: 128, k_augment: 32, ..Default::default() };
    let mut rng = Rng::seed_from_u64(41);
    let mut forest = IGuardForest::fit(data, &teacher, &cfg, &mut rng);
    forest.distill(data, &teacher, 16, &mut rng);
    let rules = RuleSet::from_iguard(&forest, 100_000).unwrap();
    let leaves = format!("{:?}", forest.trees().iter().map(|t| &t.leaves).collect::<Vec<_>>());
    format!("{leaves}\n{}\n{:?}", rules.to_tsv(), forest.scores(data))
}

#[test]
fn telemetry_gate_never_perturbs_results() {
    let _g = gate_lock();
    let mut rng = Rng::seed_from_u64(40);
    let data = uniform2(256, &mut rng);

    iguard_telemetry::set_enabled(true);
    let with_telemetry = pipeline_fingerprint(&data);
    iguard_telemetry::set_enabled(false);
    let without_telemetry = pipeline_fingerprint(&data);
    iguard_telemetry::set_enabled(true);

    assert_eq!(with_telemetry, without_telemetry, "telemetry gate changed pipeline output");

    for workers in [1usize, 2, 8] {
        let run = with_workers(workers, || pipeline_fingerprint(&data));
        assert_eq!(with_telemetry, run, "output differs at {workers} workers");
    }
}

/// Recording during a parallel pipeline run keeps every snapshot invariant
/// intact, and a later snapshot is monotonic over an earlier one.
#[test]
fn snapshots_stay_consistent_across_runs() {
    let _g = gate_lock();
    let mut rng = Rng::seed_from_u64(42);
    let data = uniform2(256, &mut rng);

    iguard_telemetry::set_enabled(true);
    let _ = pipeline_fingerprint(&data);
    let first = iguard_telemetry::registry::snapshot().expect("telemetry enabled");
    first.verify().unwrap();
    assert!(
        first.counters.get("core.forest.trees_fit").copied().unwrap_or(0) > 0,
        "fit instrumentation did not fire"
    );
    assert!(
        first.counters.get("core.rules.regions").copied().unwrap_or(0) > 0,
        "rule-compilation instrumentation did not fire"
    );

    let _ = pipeline_fingerprint(&data);
    let second = iguard_telemetry::registry::snapshot().expect("telemetry enabled");
    second.verify().unwrap();
    second.verify_monotonic_since(&first).unwrap();
}

/// The split-candidate counter totals one pipeline run's examined
/// `(feature, split)` candidates, whether it is bumped per candidate or
/// added once per node. The literal was recorded with per-candidate
/// increments; every test in this file holds the gate lock, so no other
/// run adds to the counter in between.
#[test]
fn split_candidate_counter_totals_are_pinned() {
    let _g = gate_lock();
    let mut rng = Rng::seed_from_u64(43);
    let data = uniform2(256, &mut rng);

    iguard_telemetry::set_enabled(true);
    let count = || {
        let snap = iguard_telemetry::registry::snapshot().expect("telemetry enabled");
        snap.counters.get("core.guided.split_candidates").copied().unwrap_or(0)
    };
    let before = count();
    let _ = pipeline_fingerprint(&data);
    assert_eq!(count() - before, 464, "split candidates examined by one pipeline run");
}
