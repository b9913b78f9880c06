//! Speed gates for the two hot-path claims (DESIGN.md §10, §11): the
//! compiled index beats the linear scan 2× from 256 rules up, and the
//! columnar replay beats the per-packet scalar walk 2× at one worker.
//! Both are min-of-N wall-clock ratios, meaningful only in an optimised
//! build: debug builds skip them, and `scripts/check.sh` runs this suite
//! with `--release`. The two tests take a shared lock so neither times
//! itself while the other loads the CPU.

mod support;

use std::sync::Mutex;
use std::time::Instant;

use iguard_core::rules::{Hypercube, RuleSet};
use iguard_flow::table::FlowTableConfig;
use iguard_runtime::par::with_workers;
use iguard_runtime::rng::Rng;
use iguard_switch::controller::{Controller, ControllerConfig};
use iguard_switch::data_plane::DataPlane;
use iguard_switch::pipeline::{Pipeline, PipelineConfig, ScalarPipeline};
use iguard_switch::replay::{replay, ReplayConfig};
use iguard_switch::rule_index::RangeIndex;
use iguard_switch::tcam::{compile_ruleset, quantize_key_into, FieldSpec};
use iguard_synth::attacks::Attack;
use iguard_synth::benign::benign_trace;
use iguard_synth::trace::Trace;

const SEED: u64 = 7;
const GATE: f64 = 2.0;

static TIMING: Mutex<()> = Mutex::new(());

/// Minimum wall-clock ns of `f` over `iters` runs, plus the sum of the
/// checksums `f` returns (so the timed work cannot be optimised away).
fn min_time_ns(iters: usize, mut f: impl FnMut() -> u64) -> (u64, u64) {
    let (mut best, mut sum) = (u64::MAX, 0u64);
    for _ in 0..iters {
        let t = Instant::now();
        sum = sum.wrapping_add(f());
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    (best, sum)
}

fn checksum(hit: Option<usize>) -> u64 {
    hit.map_or(u64::MAX, |i| i as u64)
}

const INDEX_DIMS: usize = 13;
const INDEX_PROBES: usize = 2048;

/// A synthetic 13-dim first-match rule set whose cubes are several
/// quanta wide at a 16-bit spec, so every rule installs in the TCAM.
fn synthetic_rules(n_rules: usize, rng: &mut Rng) -> RuleSet {
    const DOMAIN: f32 = 100.0;
    let whitelist = (0..n_rules)
        .map(|_| {
            let (mut lo, mut hi) = (Vec::new(), Vec::new());
            for _ in 0..INDEX_DIMS {
                let w = rng.gen_range(5.0_f32..40.0);
                let a = rng.gen_range(0.0_f32..DOMAIN - 1.0);
                lo.push(a);
                hi.push((a + w).min(DOMAIN));
            }
            Hypercube { lo, hi }
        })
        .collect();
    RuleSet { bounds: vec![(0.0, DOMAIN); INDEX_DIMS], whitelist, total_regions: n_rules }
}

/// At 256 and 1024 rules over 2048 probe rows (half drawn inside a random
/// cube, half uniform over a slightly inflated domain), the compiled
/// index must beat the linear scan 2× on both the float rules and the
/// TCAM. TCAM keys are quantized once, so its timings are lookup cost
/// only. Timed verdicts must agree with the linear scan.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing ratio needs an optimised build; scripts/check.sh runs it with --release"
)]
fn rule_index_is_twice_the_linear_scan_from_256_rules() {
    let _lock = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    const ITERS: usize = 3;
    for n_rules in [256usize, 1024] {
        let mut rng = Rng::seed_from_u64(SEED ^ 0x1DE0 ^ n_rules as u64);
        let rules = synthetic_rules(n_rules, &mut rng);
        let rows: Vec<Vec<f32>> = (0..INDEX_PROBES)
            .map(|i| {
                if i % 2 == 0 {
                    let c = &rules.whitelist[rng.gen_range(0..n_rules)];
                    (0..INDEX_DIMS).map(|d| rng.gen_range(c.lo[d]..c.hi[d].min(100.0))).collect()
                } else {
                    (0..INDEX_DIMS).map(|_| rng.gen_range(0.0_f32..110.0)).collect()
                }
            })
            .collect();

        let index = rules.build_index();
        let mut scratch = Vec::new();
        let (float_linear, want) = min_time_ns(ITERS, || {
            rows.iter().fold(0u64, |acc, r| acc.wrapping_add(checksum(rules.lookup(r))))
        });
        let (float_indexed, got) = min_time_ns(ITERS, || {
            rows.iter()
                .fold(0u64, |acc, r| acc.wrapping_add(checksum(index.lookup(r, &mut scratch))))
        });
        assert_eq!(got, want, "float index verdicts diverged at {n_rules} rules");

        let specs = vec![FieldSpec::new(16, 655.0); INDEX_DIMS];
        let table = compile_ruleset(&rules, &specs);
        let range_index = RangeIndex::build(&table);
        let mut key = Vec::new();
        let keys: Vec<Vec<u32>> = rows
            .iter()
            .map(|r| {
                quantize_key_into(r, &specs, &mut key);
                key.clone()
            })
            .collect();
        let (tcam_linear, want) = min_time_ns(ITERS, || {
            keys.iter().fold(0u64, |acc, k| acc.wrapping_add(checksum(table.lookup_idx(k))))
        });
        let (tcam_indexed, got) = min_time_ns(ITERS, || {
            keys.iter().fold(0u64, |acc, k| {
                acc.wrapping_add(checksum(range_index.lookup(k, &mut scratch)))
            })
        });
        assert_eq!(got, want, "TCAM index verdicts diverged at {n_rules} rules");

        let float = float_linear as f64 / float_indexed.max(1) as f64;
        let tcam = tcam_linear as f64 / tcam_indexed.max(1) as f64;
        assert!(
            float >= GATE && tcam >= GATE,
            "index speedup below {GATE}x at {n_rules} rules: float {float:.2}x, tcam {tcam:.2}x"
        );
    }
}

/// The columnar `Pipeline` at batch 1024 against the per-packet
/// `ScalarPipeline` at batch 1, one worker. An unreachable threshold and
/// timeout keep every flow brown, so nearly every packet takes the
/// deferred lookup the columnar path batches, and with no digests there
/// is no feedback: outputs must match exactly. Seven interleaved pairs,
/// min of each side, and one more round if the first falls short: a
/// noise burst can sink one round, a real regression sinks both.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing ratio needs an optimised build; scripts/check.sh runs it with --release"
)]
fn columnar_replay_is_twice_the_scalar_walk_at_one_worker() {
    let (fl, pl) = support::trained_rules(SEED);
    let mut rng = Rng::seed_from_u64(SEED ^ 0x50A0_50A0);
    let trace = Trace::merge(vec![
        benign_trace(400, 12.0, &mut rng),
        Attack::UdpDdos.trace(120, 12.0, &mut rng),
    ]);
    let cfg = PipelineConfig::default().with_flow_table(
        FlowTableConfig::default().with_pkt_threshold(u64::MAX).with_timeout_ns(u64::MAX),
    );
    let run = |dp: &mut dyn DataPlane, batch: usize| {
        let mut controller = Controller::new(ControllerConfig::default());
        let rcfg = ReplayConfig::default().with_batch_size(batch);
        let t = Instant::now();
        let r = replay(&trace, dp, &mut controller, &rcfg);
        let ns = t.elapsed().as_nanos() as u64;
        let outputs = (
            (r.tp, r.fp, r.tn, r.fn_, r.dropped, r.digests),
            dp.counters(),
            dp.whitelist_counters(),
            dp.blacklist_len(),
        );
        (ns, outputs)
    };

    let _lock = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let (mut scalar_min, mut columnar_min) = (u64::MAX, u64::MAX);
    with_workers(1, || {
        for _round in 0..2 {
            for _ in 0..7 {
                let (s_ns, want) = run(&mut ScalarPipeline::new(cfg, fl.clone(), pl.clone()), 1);
                let (c_ns, got) = run(&mut Pipeline::new(cfg, fl.clone(), pl.clone()), 1024);
                assert_eq!(got, want, "columnar replay outputs diverged from the scalar walk");
                scalar_min = scalar_min.min(s_ns);
                columnar_min = columnar_min.min(c_ns);
            }
            if scalar_min as f64 >= GATE * columnar_min as f64 {
                break;
            }
        }
    });
    let speedup = scalar_min as f64 / columnar_min.max(1) as f64;
    assert!(
        speedup >= GATE,
        "columnar replay {speedup:.2}x the scalar walk (scalar {scalar_min} ns, columnar \
         {columnar_min} ns), below the {GATE}x gate"
    );
}
