//! Phase-parity suite (DESIGN.md §16): phase-aware classification is
//! part of the deterministic surface. For every phase configuration —
//! disabled, one boundary, two boundaries — the full observable stream
//! (outcomes, sequence-tagged digests, overload stats) must be
//! byte-identical at every shard × worker grid point, a phase schedule
//! with no installed rulesets must be indistinguishable from single-shot
//! operation, and every backend (scalar, columnar, sharded, sketched)
//! must agree packet-for-packet when phases are live.

mod support;

use iguard_core::rules::RuleSet;
use iguard_flow::table::{FlowTableConfig, PhaseSchedule};
use iguard_runtime::par::with_workers;
use iguard_runtime::rng::Rng;
use iguard_switch::data_plane::OverloadStats;
use iguard_switch::pipeline::{
    Pipeline, PipelineConfig, ProcessOutcome, ScalarPipeline, SeqDigest, FINAL_PHASE,
};
use iguard_switch::sharded::{ShardedPipeline, ShardedPipelineConfig};
use iguard_switch::sketched::{SketchedPipeline, SketchedPipelineConfig};
use iguard_switch::DataPlane;
use iguard_synth::benign::benign_trace;
use iguard_synth::scenarios::Scenario;
use iguard_synth::trace::Trace;
use support::{accept_all, fl_mean_size_below};

/// Mixed storm: benign background plus the adversarial canon, small
/// enough to grid over but with enough collision churn and flow rebirth
/// to exercise every phase transition.
fn phase_storm() -> Trace {
    let mut rng = Rng::seed_from_u64(0x9A5E);
    Trace::merge(vec![
        benign_trace(40, 6.0, &mut rng),
        Scenario::StateExhaustion.trace(1_500, 6.0, &mut rng),
        Scenario::PulseWave.trace(400, 6.0, &mut rng),
        Scenario::Slowloris.trace(100, 6.0, &mut rng),
        Scenario::C2Beacon.trace(60, 6.0, &mut rng),
    ])
}

/// Cross-backend comparisons need a collision-free flow population:
/// the serial and sharded table layouts hash flows to slots differently,
/// so with thousands of flows the two layouts resolve *different* hash
/// collisions and legitimately diverge (cf. `shard_invariance.rs`,
/// "without slot pressure"). A couple hundred flows in a 65k-slot table
/// keeps both layouts collision-free — deterministically, since the
/// trace seed is fixed.
fn parity_mix() -> Trace {
    let mut rng = Rng::seed_from_u64(0x9A5E);
    Trace::merge(vec![
        benign_trace(40, 6.0, &mut rng),
        Scenario::PulseWave.trace(100, 6.0, &mut rng),
        Scenario::Slowloris.trace(50, 6.0, &mut rng),
        Scenario::C2Beacon.trace(40, 6.0, &mut rng),
    ])
}

/// The three phase configurations under test: disabled, a single early
/// boundary, and the bench ladder. Rulesets are one per boundary.
fn phase_rules(boundaries: &[u64]) -> Vec<RuleSet> {
    boundaries.iter().map(|_| fl_mean_size_below(150.0)).collect()
}

fn phase_cfg(boundaries: &[u64], slots: usize) -> PipelineConfig {
    let mut ft = FlowTableConfig::default().with_slots_per_table(slots).with_pkt_threshold(4);
    if !boundaries.is_empty() {
        ft = ft.with_phases(PhaseSchedule::new(boundaries));
    }
    PipelineConfig::default().with_flow_table(ft)
}

/// Small enough to put the grid under real slot pressure.
const PRESSURED_SLOTS: usize = 512;
/// Large enough that no flow collides in any backend's layout: serial,
/// sharded and sketched backends only promise packet-for-packet parity
/// when slot pressure is absent (cf. `shard_invariance.rs`).
const PRESSURE_FREE_SLOTS: usize = 65_536;

/// Everything a backend makes observable, for exact equality.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    outcomes: Vec<ProcessOutcome>,
    digests: Vec<SeqDigest>,
    overload: OverloadStats,
}

/// Element-wise outcome + digest comparison that reports the *first*
/// mismatch instead of dumping two multi-thousand-element vectors.
fn assert_streams_eq(a: &Fingerprint, b: &Fingerprint, what: &str) {
    assert_eq!(a.outcomes.len(), b.outcomes.len(), "{what}: outcome count");
    for (i, (x, y)) in a.outcomes.iter().zip(&b.outcomes).enumerate() {
        assert_eq!(x, y, "{what}: outcomes diverge at packet {i}");
    }
    assert_eq!(a.digests.len(), b.digests.len(), "{what}: digest count");
    for (i, (x, y)) in a.digests.iter().zip(&b.digests).enumerate() {
        assert_eq!(x, y, "{what}: digests diverge at index {i}");
    }
}

fn fingerprint<D: DataPlane>(mut dp: D, trace: &Trace) -> Fingerprint {
    let mut outcomes = Vec::new();
    let mut digests = Vec::new();
    let mut out = Vec::new();
    for chunk in trace.packets.chunks(512) {
        dp.process_batch(chunk, &mut out);
        outcomes.extend_from_slice(&out);
        dp.drain_seq_digests_into(&mut digests);
    }
    Fingerprint { outcomes, digests, overload: dp.overload_stats() }
}

fn run_sharded(
    trace: &Trace,
    boundaries: &[u64],
    rules: &[RuleSet],
    slots: usize,
    shards: usize,
    workers: usize,
) -> Fingerprint {
    with_workers(workers, || {
        let cfg = ShardedPipelineConfig::from(phase_cfg(boundaries, slots)).with_shards(shards);
        let mut dp = ShardedPipeline::new(cfg, accept_all(13), accept_all(4));
        if !rules.is_empty() {
            dp.set_phase_rulesets(rules);
        }
        fingerprint(dp, trace)
    })
}

/// Phase-enabled classification must be byte-identical at every
/// shard × worker grid point, for every phase configuration.
#[test]
fn phase_fingerprint_invariant_across_grid() {
    let trace = phase_storm();
    let configs: [&[u64]; 3] = [&[], &[2], &[2, 3]];
    for boundaries in configs {
        let rules = phase_rules(boundaries);
        let base = run_sharded(&trace, boundaries, &rules, PRESSURED_SLOTS, 1, 1);
        if boundaries.is_empty() {
            assert!(
                base.digests.iter().all(|d| d.digest.phase == FINAL_PHASE),
                "single-shot run must not stamp intermediate phases"
            );
        } else {
            assert!(
                base.digests.iter().any(|d| d.digest.malicious && d.digest.phase == 0),
                "phase run must convict at the first boundary (non-vacuous)"
            );
        }
        for (shards, workers) in [(2, 1), (8, 1), (1, 2), (1, 8), (2, 8), (8, 8)] {
            let got = run_sharded(&trace, boundaries, &rules, PRESSURED_SLOTS, shards, workers);
            assert_eq!(
                got, base,
                "phase fingerprint diverged at boundaries {boundaries:?}, \
                 {shards} shards / {workers} workers"
            );
        }
    }
}

/// A phase schedule with no installed rulesets escalates unconditionally
/// at every boundary: its observable stream is bit-for-bit the
/// single-shot stream, and both match the plain unsharded [`Pipeline`].
#[test]
fn phases_disabled_matches_plain_pipeline() {
    let trace = parity_mix();
    let plain = fingerprint(
        Pipeline::new(phase_cfg(&[], PRESSURE_FREE_SLOTS), accept_all(13), accept_all(4)),
        &trace,
    );
    let no_schedule = run_sharded(&trace, &[], &[], PRESSURE_FREE_SLOTS, 1, 1);
    let schedule_no_rules = run_sharded(&trace, &[2, 3], &[], PRESSURE_FREE_SLOTS, 1, 1);
    assert_streams_eq(&plain, &no_schedule, "plain pipeline vs sharded single-shot");
    assert_eq!(
        no_schedule, schedule_no_rules,
        "a phase schedule without rulesets must be indistinguishable from single-shot"
    );
    // The same equivalence must hold under slot pressure, where the
    // boundary checks fire against a churning table. Sharded-vs-sharded
    // shares one layout, so the full storm is fair game here.
    let storm = phase_storm();
    let pressured_plain = run_sharded(&storm, &[], &[], PRESSURED_SLOTS, 1, 1);
    let pressured_schedule = run_sharded(&storm, &[2, 3], &[], PRESSURED_SLOTS, 1, 1);
    assert_eq!(
        pressured_plain, pressured_schedule,
        "ruleset-free phase schedule diverged from single-shot under slot pressure"
    );
}

/// With phases live, every backend agrees packet-for-packet: scalar
/// reference, columnar batch path, sharded grid, and the sketch-fronted
/// pipeline in exact mode all produce the same outcomes and digests.
#[test]
fn phase_parity_across_backends() {
    let trace = parity_mix();
    let boundaries: &[u64] = &[2, 3];
    let rules = phase_rules(boundaries);

    let cfg = phase_cfg(boundaries, PRESSURE_FREE_SLOTS);

    let mut scalar = ScalarPipeline::new(cfg.clone(), accept_all(13), accept_all(4));
    scalar.set_phase_rulesets(&rules);
    let scalar_fp = fingerprint(scalar, &trace);
    assert!(
        scalar_fp.digests.iter().any(|d| d.digest.malicious && d.digest.phase == 0),
        "backend parity run must include phase convictions"
    );

    let mut columnar = Pipeline::new(cfg.clone(), accept_all(13), accept_all(4));
    columnar.set_phase_rulesets(&rules);
    let columnar_fp = fingerprint(columnar, &trace);
    assert_streams_eq(&scalar_fp, &columnar_fp, "scalar vs columnar");

    let sharded_fp = run_sharded(&trace, boundaries, &rules, PRESSURE_FREE_SLOTS, 8, 8);
    assert_streams_eq(&scalar_fp, &sharded_fp, "scalar vs sharded");

    let sk_cfg = SketchedPipelineConfig { pipeline: cfg, ..Default::default() };
    let mut sketched = SketchedPipeline::new(sk_cfg, accept_all(13), accept_all(4));
    sketched.set_phase_rulesets(&rules);
    let sketched_fp = fingerprint(sketched, &trace);
    assert_streams_eq(&scalar_fp, &sketched_fp, "scalar vs sketched (exact mode)");
}
