//! The PR-6 bench reporter: runs the deployment pipeline end-to-end under
//! telemetry and writes a machine-readable `BENCH_PR6.json` — per-stage
//! wall-clock timings, rule counts, TCAM occupancy, flow-table pressure,
//! switch path counts, a shard sweep of the [`ShardedPipeline`] backend
//! (1/2/4/8 physical shards vs the serial `Pipeline`), a chaos sweep of
//! the fault-injected control loop (detection quality vs channel drop
//! rate, retry counts, recovery latency after a scripted outage), a
//! rule-index sweep (compiled first-match index vs linear scan, float and
//! TCAM paths, at 64/256/1024 rules), a replay-trace verdict-parity
//! check, an SoA replay comparison (columnar `Pipeline` vs per-packet
//! `ScalarPipeline` at one worker), and the full verified telemetry
//! snapshot.
//!
//! Three hard gates guard the hot-path claims: the indexed lookup must
//! return the *identical* verdict as the linear scan on every sampled key
//! (the run aborts on the first divergence), the indexed path must be
//! at least 2× faster than the linear scan at ≥256 rules, and the
//! columnar replay path must match the scalar oracle byte-for-byte while
//! being at least 2× faster in packets/sec at a single worker.
//!
//! Three sibling documents ride along: `BENCH_PR7.json` (the streaming
//! sketch sweep), `BENCH_PR8.json` (the online drift-adaptation loop —
//! drift detection, warm retrain, minimal rule diff, hitless transactional
//! swap, each behind its own hard gate), and `BENCH_PR9.json` (the
//! overload-resilience sweep: the four adversarial state-exhaustion canon
//! scenarios replayed through a deliberately starved flow table, with a
//! per-scenario scorecard — detection rate, benign-FP cost, per-flow
//! time-to-mitigation CDF, degraded-mode residency, digests shed — gated
//! on byte-identical fingerprints across a 1/2/8-shard × 1/2/8-worker
//! grid, observable degraded-mode entry/exit, bounded benign-FP inflation
//! while degraded, post-storm reconvergence to the fresh-pipeline
//! confusion matrix, and the unchanged PR-2 golden matrix on the
//! non-overloaded exact path), and `BENCH_PR10.json` (the phase-aware
//! classification sweep: per-phase whitelists consulted at intermediate
//! packet-count boundaries, scored as a detection-latency CDF — packets
//! seen before verdict, per deciding phase — against the single-shot
//! baseline on the same storm workloads, gated on byte-identical
//! shard × worker fingerprints with phases enabled, a phases-disabled
//! run matching the single-shot fingerprint exactly, strictly improved
//! pulse-wave median exposure, and nonzero state-exhaustion mitigation).
//!
//! Usage:
//!
//! ```text
//! bench_report [--smoke] [--seed N] [--out PATH] [--out-pr7 PATH] [--out-pr8 PATH]
//!              [--out-pr9 PATH] [--out-pr10 PATH]
//! ```
//!
//! `--smoke` runs one iteration of each stage (CI sanity); the default is
//! three, reported as min/mean/max. The run aborts if the final telemetry
//! snapshot fails its invariant checks — or if the shard sweep's replay
//! reports diverge across shard counts — so a broken counter or a
//! nondeterministic backend can never produce a plausible-looking
//! baseline file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use iguard_core::drift::DriftConfig;
use iguard_core::early::EarlyModel;
use iguard_core::forest::{IGuardConfig, IGuardForest};
use iguard_core::phase::{train_phases, PhaseTrainConfig};
use iguard_core::rules::{Hypercube, RuleSet};
use iguard_core::teacher::OracleTeacher;
use iguard_flow::features::packet_level_features;
use iguard_flow::five_tuple::{FiveTuple, PROTO_TCP};
use iguard_flow::packet::{Packet, TcpFlags};
use iguard_flow::table::{FlowTableConfig, PhaseSchedule};
use iguard_iforest::IsolationForestConfig;
use iguard_runtime::rng::Rng;
use iguard_runtime::{ChannelKind, FaultPlan};
use iguard_switch::controller::{Controller, ControllerConfig};
use iguard_switch::data_plane::DataPlane;
use iguard_switch::data_plane::OverloadStats;
use iguard_switch::pipeline::{
    OverloadConfig, PacketVerdict, Pipeline, PipelineConfig, ProcessOutcome,
};
use iguard_switch::replay::replay_stream;
use iguard_switch::replay::{
    replay, replay_chaos, replay_chaos_traced, ChaosConfig, MitigationLog, MitigationRecord,
    ReplayConfig, ReplayReport,
};
use iguard_switch::resources::ResourceModel;
use iguard_switch::rule_index::RangeIndex;
use iguard_switch::ruleset::{canonical_entries, RulesetCounters, RulesetTxn};
use iguard_switch::sharded::{ShardedPipeline, ShardedPipelineConfig};
use iguard_switch::tcam::{compile_ruleset, quantize_key_into, FieldSpec, RangeEntry, RangeTable};
use iguard_switch::{SketchEviction, SketchedPipeline, SketchedPipelineConfig};
use iguard_synth::attacks::Attack;
use iguard_synth::benign::benign_trace;
use iguard_synth::scenarios::{Scenario, ALL_SCENARIOS};
use iguard_synth::streaming::{StreamingConfig, StreamingTrace};
use iguard_synth::trace::{extract_flows, ExtractConfig, Trace};
use iguard_telemetry::json;

/// Allocation-counting wrapper over the system allocator: the PR-7
/// streaming sweep asserts that the steady-state replay loop performs no
/// per-batch heap allocation (buffer-reuse audit). Counting is a single
/// relaxed atomic add, cheap enough to leave on for every stage.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

struct Args {
    smoke: bool,
    seed: u64,
    out: String,
    out_pr7: String,
    out_pr8: String,
    out_pr9: String,
    out_pr10: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        seed: 7,
        out: "BENCH_PR6.json".into(),
        out_pr7: "BENCH_PR7.json".into(),
        out_pr8: "BENCH_PR8.json".into(),
        out_pr9: "BENCH_PR9.json".into(),
        out_pr10: "BENCH_PR10.json".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--seed" => {
                let v = it.next().expect("--seed needs a value");
                args.seed = v.parse().expect("--seed must be an integer");
            }
            "--out" => args.out = it.next().expect("--out needs a path"),
            "--out-pr7" => args.out_pr7 = it.next().expect("--out-pr7 needs a path"),
            "--out-pr8" => args.out_pr8 = it.next().expect("--out-pr8 needs a path"),
            "--out-pr9" => args.out_pr9 = it.next().expect("--out-pr9 needs a path"),
            "--out-pr10" => args.out_pr10 = it.next().expect("--out-pr10 needs a path"),
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: bench_report [--smoke] [--seed N] [--out PATH] [--out-pr7 PATH] [--out-pr8 PATH] [--out-pr9 PATH] [--out-pr10 PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// Min/mean/max wall-clock of a named stage across iterations.
struct StageStat {
    name: &'static str,
    iters: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl StageStat {
    fn new(name: &'static str) -> Self {
        Self { name, iters: 0, total_ns: 0, min_ns: u64::MAX, max_ns: 0 }
    }

    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.iters += 1;
        self.total_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        r
    }

    fn to_json(&self, indent: usize) -> String {
        let mut o = json::Object::new();
        o.u64("iters", self.iters)
            .f64("mean_ns", self.total_ns as f64 / self.iters.max(1) as f64)
            .u64("min_ns", self.min_ns)
            .u64("max_ns", self.max_ns);
        o.render(indent)
    }
}

/// 16-bit quantization specs scaled to a rule set's feature bounds — the
/// same compilation every deployment stage in this reporter uses.
fn specs_for(rules: &RuleSet) -> Vec<FieldSpec> {
    rules
        .bounds
        .iter()
        .map(|&(_, hi)| FieldSpec::new(16, (65_535.0 / hi.max(1e-6)).min(65_535.0)))
        .collect()
}

/// Everything one scenario iteration produces that the report consumes.
struct RunArtifacts {
    fl_rules: RuleSet,
    pl_rules: RuleSet,
    fl_tcam: RangeTable,
    pl_tcam: RangeTable,
    report: ReplayReport,
    pipeline: Pipeline,
    flow_table: FlowTableConfig,
}

fn run_scenario(seed: u64, stages: &mut [StageStat]) -> RunArtifacts {
    let [fit, distill, rulegen_fl, rulegen_pl, tcam_compile, replay_stage] = stages else {
        panic!("stage list out of sync");
    };
    let mut rng = Rng::seed_from_u64(seed);
    let cfg = ExtractConfig::default();
    let train_trace = benign_trace(300, 10.0, &mut rng);
    let train = extract_flows(&train_trace, &cfg);

    // A fixed oracle on IPD regularity (feature 10: std of inter-packet
    // delay) and oversized packets (feature 2: mean size) stands in for the
    // autoencoder teacher: flood tooling is machine-regular, benign jitter
    // is not. Deterministic and cheap, so the reporter benches the iGuard
    // machinery rather than NN training.
    let teacher = OracleTeacher(|x: &[f32]| x[10] < 0.0008 || x[2] > 1200.0);
    let ig = IGuardConfig { n_trees: 7, subsample: 64, k_augment: 64, ..Default::default() };
    let mut forest = fit.time(|| IGuardForest::fit(&train.features, &teacher, &ig, &mut rng));
    distill.time(|| forest.distill(&train.features, &teacher, ig.k_augment, &mut rng));
    let fl_rules =
        rulegen_fl.time(|| RuleSet::from_iguard(&forest, 600_000).expect("FL rule budget"));

    // Early-packet model on first-packet PL features.
    let mut seen = std::collections::HashSet::new();
    let mut pl = iguard_runtime::Dataset::default();
    for p in &train_trace.packets {
        if seen.insert(p.five.canonical()) {
            pl.push_row(&packet_level_features(p));
        }
    }
    let early = rulegen_pl.time(|| {
        EarlyModel::train(
            &pl,
            &IsolationForestConfig { n_trees: 10, subsample: 64, contamination: 0.05 },
            600_000,
            &mut rng,
        )
        .expect("PL rules")
    });
    let pl_rules = early.rules;

    let fl_specs = specs_for(&fl_rules);
    let pl_specs = specs_for(&pl_rules);
    let (fl_tcam, pl_tcam) = tcam_compile
        .time(|| (compile_ruleset(&fl_rules, &fl_specs), compile_ruleset(&pl_rules, &pl_specs)));

    // Replay a benign + flood mix through the emulated switch.
    let benign = benign_trace(150, 8.0, &mut rng);
    let flood = Attack::UdpDdos.trace(60, 8.0, &mut rng);
    let trace = Trace::merge(vec![benign, flood]);
    let flow_table = FlowTableConfig { pkt_threshold: 4, ..Default::default() };
    let mut pipeline = Pipeline::new(flow_table, fl_rules.clone(), pl_rules.clone());
    let mut controller = Controller::new(ControllerConfig::default());
    let report = replay_stage
        .time(|| replay(&trace, &mut pipeline, &mut controller, &ReplayConfig::default()));

    RunArtifacts { fl_rules, pl_rules, fl_tcam, pl_tcam, report, pipeline, flow_table }
}

/// Replay batch size used throughout the shard sweep (also the controller
/// feedback granularity — identical for the baseline and every shard
/// count, so the comparison is apples-to-apples).
const SWEEP_BATCH: usize = 8192;

/// One shard-sweep data point.
struct SweepPoint {
    shards: usize,
    min_ns: u64,
    mean_ns: f64,
    mpps: f64,
    imbalance: f64,
    report: ReplayReport,
    blacklist: Vec<iguard_flow::five_tuple::FiveTuple>,
}

/// Replays the same trace through the serial `Pipeline` and through
/// `ShardedPipeline` at 1/2/4/8 physical shards (workers pinned to the
/// shard count), timing each and checking that every sharded run produces
/// the same confusion matrix, digest count and blacklist. Returns
/// `(baseline_min_ns, baseline_report, points)`.
fn run_shard_sweep(
    seed: u64,
    iters: usize,
    fl_rules: &RuleSet,
    pl_rules: &RuleSet,
) -> (u64, ReplayReport, Vec<SweepPoint>) {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5EED_5EED);
    let benign = benign_trace(800, 20.0, &mut rng);
    let flood = Attack::UdpDdos.trace(250, 20.0, &mut rng);
    let trace = Trace::merge(vec![benign, flood]);
    let pipe_cfg =
        PipelineConfig::default().with_flow_table(FlowTableConfig::default().with_pkt_threshold(4));
    // Batched replay so the sharded backend amortises per-batch costs
    // (binning, scatter, worker dispatch); the serial baseline uses the
    // identical batch size for a fair comparison.
    let replay_cfg = ReplayConfig::default().with_batch_size(SWEEP_BATCH);

    let time_replay = |dp: &mut dyn DataPlane| -> (u64, ReplayReport) {
        let mut controller = Controller::new(ControllerConfig::default());
        let t = Instant::now();
        let report = replay(&trace, dp, &mut controller, &replay_cfg);
        (t.elapsed().as_nanos().min(u64::MAX as u128) as u64, report)
    };

    let mut base_min = u64::MAX;
    let mut base_report = ReplayReport::default();
    for _ in 0..iters {
        let mut p = Pipeline::new(pipe_cfg, fl_rules.clone(), pl_rules.clone());
        let (ns, report) = time_replay(&mut p);
        base_min = base_min.min(ns);
        base_report = report;
    }

    let mut points = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let mut min_ns = u64::MAX;
        let mut total_ns = 0u64;
        let mut last: Option<(ReplayReport, f64, Vec<_>)> = None;
        for _ in 0..iters {
            let cfg = ShardedPipelineConfig::from(pipe_cfg).with_shards(shards);
            let mut sp = ShardedPipeline::new(cfg, fl_rules.clone(), pl_rules.clone());
            let (ns, report) = iguard_runtime::par::with_workers(shards, || time_replay(&mut sp));
            min_ns = min_ns.min(ns);
            total_ns += ns;
            last = Some((report, sp.imbalance_ratio(), sp.blacklist_contents()));
        }
        let (report, imbalance, blacklist) = last.expect("at least one iteration");
        points.push(SweepPoint {
            shards,
            min_ns,
            mean_ns: total_ns as f64 / iters as f64,
            mpps: report.packets as f64 / (min_ns as f64 / 1e9) / 1e6,
            imbalance,
            report,
            blacklist,
        });
    }

    // Determinism gate: every shard count must agree exactly on the
    // replay-visible outputs.
    let first = &points[0];
    for p in &points[1..] {
        let same = p.report.tp == first.report.tp
            && p.report.fp == first.report.fp
            && p.report.tn == first.report.tn
            && p.report.fn_ == first.report.fn_
            && p.report.digests == first.report.digests
            && p.report.dropped == first.report.dropped
            && p.blacklist == first.blacklist;
        if !same {
            eprintln!(
                "bench_report: shard sweep diverged at {} shards (vs {} shards)",
                p.shards, first.shards
            );
            std::process::exit(1);
        }
    }
    (base_min, base_report, points)
}

/// Replay batch size for the chaos sweep — small enough that the trace
/// spans many control-loop ticks, so outage windows, backoff schedules
/// and resync sweeps all get exercised.
const CHAOS_BATCH: usize = 1024;

/// Resync cadence (ticks) used by every chaos scenario.
const CHAOS_RESYNC: u64 = 8;

/// Channel drop rates swept by the lossy-channel curve. 0.0 is the
/// fault-free anchor every other point is compared against.
const CHAOS_DROP_RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.25, 0.5];

/// One chaos-sweep data point: a scenario label, its fault intensity and
/// the full replay report plus final blacklist.
struct ChaosPoint {
    label: String,
    drop_rate: f64,
    report: ReplayReport,
    blacklist: Vec<iguard_flow::five_tuple::FiveTuple>,
}

fn run_chaos_case(
    trace: &iguard_synth::trace::Trace,
    fl_rules: &RuleSet,
    pl_rules: &RuleSet,
    chaos: &ChaosConfig,
) -> (ReplayReport, Vec<iguard_flow::five_tuple::FiveTuple>) {
    let pipe_cfg =
        PipelineConfig::default().with_flow_table(FlowTableConfig::default().with_pkt_threshold(4));
    let mut pipeline = Pipeline::new(pipe_cfg, fl_rules.clone(), pl_rules.clone());
    let mut controller = Controller::new(ControllerConfig::default());
    let replay_cfg = ReplayConfig::default().with_batch_size(CHAOS_BATCH);
    let report = replay_chaos(trace, &mut pipeline, &mut controller, &replay_cfg, chaos);
    (report, pipeline.blacklist_contents())
}

/// Sweeps the fault-injected control loop: a lossy-channel curve (drop /
/// duplicate / reorder / delay / send-fail rates scaled together via
/// [`FaultPlan::lossy`]) plus a scripted digest-channel outage scenario.
/// Every scenario runs with periodic resync so the loop can converge; the
/// 0.0-rate point doubles as the fault-free baseline for blacklist-delta
/// accounting. Aborts if re-running the harshest lossy point does not
/// reproduce byte-identical results — fault injection must stay
/// deterministic or the curve is meaningless.
fn run_chaos_sweep(seed: u64, fl_rules: &RuleSet, pl_rules: &RuleSet) -> Vec<ChaosPoint> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xC4A0_5C4A);
    let benign = benign_trace(200, 10.0, &mut rng);
    let flood = Attack::UdpDdos.trace(80, 10.0, &mut rng);
    let trace = Trace::merge(vec![benign, flood]);

    let mut points = Vec::new();
    for rate in CHAOS_DROP_RATES {
        let plan =
            if rate == 0.0 { FaultPlan::none() } else { FaultPlan::lossy(seed ^ 0xFA17, rate) };
        let chaos = ChaosConfig::default().with_plan(plan).with_resync_interval(CHAOS_RESYNC);
        let (report, blacklist) = run_chaos_case(&trace, fl_rules, pl_rules, &chaos);
        points.push(ChaosPoint {
            label: format!("lossy_{rate}"),
            drop_rate: rate,
            report,
            blacklist,
        });
    }

    // Determinism gate: the harshest lossy point must replay exactly.
    {
        let last = points.last().expect("at least one lossy point");
        let rate = *CHAOS_DROP_RATES.last().expect("rates non-empty");
        let chaos = ChaosConfig::default()
            .with_plan(FaultPlan::lossy(seed ^ 0xFA17, rate))
            .with_resync_interval(CHAOS_RESYNC);
        let (rerun, blacklist) = run_chaos_case(&trace, fl_rules, pl_rules, &chaos);
        let same = rerun.tp == last.report.tp
            && rerun.fp == last.report.fp
            && rerun.tn == last.report.tn
            && rerun.fn_ == last.report.fn_
            && rerun.chan_dropped == last.report.chan_dropped
            && rerun.retries == last.report.retries
            && rerun.flush_ticks == last.report.flush_ticks
            && blacklist == last.blacklist;
        if !same {
            eprintln!("bench_report: chaos sweep is nondeterministic at drop rate {rate}");
            std::process::exit(1);
        }
    }

    // Outage scenario: the digest channel is down for the first 8 ticks,
    // then heals; resync sweeps recover the lost installs and the report's
    // recovery_packets measures how long that took.
    let outage_plan =
        FaultPlan::none().with_seed(seed ^ 0xFA17).with_outage(ChannelKind::Digest, 0, 8);
    let chaos = ChaosConfig::default().with_plan(outage_plan).with_resync_interval(4);
    let (report, blacklist) = run_chaos_case(&trace, fl_rules, pl_rules, &chaos);
    points.push(ChaosPoint {
        label: "digest_outage_0_8".into(),
        drop_rate: 0.0,
        report,
        blacklist,
    });

    points
}

/// Rule counts swept by the index benchmark. The ≥2× speedup gate applies
/// from 256 rules up; 64 is reported for the crossover curve only.
const INDEX_RULE_COUNTS: [usize; 3] = [64, 256, 1024];
const INDEX_PROBES: usize = 2048;
const INDEX_DIMS: usize = 13;

/// One rule-index sweep point: linear vs indexed lookup timings for the
/// float path and the quantized (TCAM) path at a given rule count.
struct IndexPoint {
    n_rules: usize,
    entries: usize,
    skipped_empty: u64,
    total_cuts: usize,
    float_linear_ns: u64,
    float_indexed_ns: u64,
    tcam_linear_ns: u64,
    tcam_indexed_ns: u64,
    hit_rate: f64,
}

/// A synthetic 13-dim first-match rule set: every cube is several quanta
/// wide at the 16-bit spec below, so the whole set installs (no skips)
/// and the float and TCAM paths see the same workload shape.
fn synthetic_index_rules(n_rules: usize, rng: &mut Rng) -> RuleSet {
    const DOMAIN: f32 = 100.0;
    let mut whitelist = Vec::with_capacity(n_rules);
    for _ in 0..n_rules {
        let mut lo = Vec::with_capacity(INDEX_DIMS);
        let mut hi = Vec::with_capacity(INDEX_DIMS);
        for _ in 0..INDEX_DIMS {
            let w = rng.gen_range(5.0_f32..40.0);
            let a = rng.gen_range(0.0_f32..DOMAIN - 1.0);
            lo.push(a);
            hi.push((a + w).min(DOMAIN));
        }
        whitelist.push(Hypercube { lo, hi });
    }
    RuleSet { bounds: vec![(0.0, DOMAIN); INDEX_DIMS], whitelist, total_regions: n_rules }
}

/// Times `f` over `iters` runs and returns the minimum wall-clock ns.
/// `f` returns a checksum that is accumulated so the work cannot be
/// optimised away.
fn min_time_ns(iters: usize, mut f: impl FnMut() -> u64) -> (u64, u64) {
    let mut best = u64::MAX;
    let mut sum = 0u64;
    for _ in 0..iters {
        let t = Instant::now();
        sum = sum.wrapping_add(f());
        best = best.min(t.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
    (best, sum)
}

/// The PR-5 tentpole benchmark: compiled first-match index vs linear scan
/// on the float whitelist and on the compiled TCAM, at 64/256/1024 rules
/// over ~2048 probe keys (half drawn inside random cubes so both hit and
/// miss paths are exercised; keys are quantized once and reused, so the
/// TCAM timings measure lookup cost only).
///
/// Aborts the run if any indexed verdict differs from its linear twin, or
/// if the indexed path is not ≥2× faster at ≥256 rules.
fn run_rule_index_sweep(seed: u64, iters: usize) -> Vec<IndexPoint> {
    let mut points = Vec::new();
    for n_rules in INDEX_RULE_COUNTS {
        let mut rng = Rng::seed_from_u64(seed ^ 0x1DE0 ^ n_rules as u64);
        let rules = synthetic_index_rules(n_rules, &mut rng);
        // Probe rows: half sampled inside a random cube (hits), half
        // uniform over a slightly inflated domain (mostly misses).
        let mut rows: Vec<Vec<f32>> = Vec::with_capacity(INDEX_PROBES);
        for i in 0..INDEX_PROBES {
            let mut row = Vec::with_capacity(INDEX_DIMS);
            if i % 2 == 0 {
                let c = &rules.whitelist[rng.gen_range(0..n_rules)];
                for d in 0..INDEX_DIMS {
                    row.push(rng.gen_range(c.lo[d]..c.hi[d].min(100.0)));
                }
            } else {
                for _ in 0..INDEX_DIMS {
                    row.push(rng.gen_range(0.0_f32..110.0));
                }
            }
            rows.push(row);
        }

        // --- Float path: linear first-match scan vs compiled RuleIndex.
        let float_index = rules.build_index();
        let linear_verdicts: Vec<Option<usize>> = rows.iter().map(|r| rules.lookup(r)).collect();
        let mut scratch = Vec::new();
        for (row, want) in rows.iter().zip(&linear_verdicts) {
            let got = float_index.lookup(row, &mut scratch);
            if got != *want {
                eprintln!(
                    "bench_report: float index verdict {got:?} != linear {want:?} at {n_rules} rules"
                );
                std::process::exit(1);
            }
        }
        let (float_linear_ns, sum_a) = min_time_ns(iters, || {
            let mut acc = 0u64;
            for row in &rows {
                acc = acc.wrapping_add(rules.lookup(row).map_or(u64::MAX, |i| i as u64));
            }
            acc
        });
        let (float_indexed_ns, sum_b) = min_time_ns(iters, || {
            let mut acc = 0u64;
            for row in &rows {
                acc = acc.wrapping_add(
                    float_index.lookup(row, &mut scratch).map_or(u64::MAX, |i| i as u64),
                );
            }
            acc
        });
        assert_eq!(sum_a, sum_b, "timed runs must agree with the verified verdicts");

        // --- TCAM path: quantize every probe once, then time the linear
        // RangeTable scan vs the compiled RangeIndex on identical keys.
        let specs = vec![FieldSpec::new(16, 655.0); INDEX_DIMS];
        let table = compile_ruleset(&rules, &specs);
        let range_index = RangeIndex::build(&table);
        let mut kbuf: Vec<u32> = Vec::new();
        let keys: Vec<Vec<u32>> = rows
            .iter()
            .map(|r| {
                quantize_key_into(r, &specs, &mut kbuf);
                kbuf.clone()
            })
            .collect();
        let mut qscratch = Vec::new();
        for key in &keys {
            let want = table.lookup_idx(key);
            let got = range_index.lookup(key, &mut qscratch);
            if got != want {
                eprintln!(
                    "bench_report: TCAM index verdict {got:?} != linear {want:?} at {n_rules} rules"
                );
                std::process::exit(1);
            }
        }
        let (tcam_linear_ns, sum_c) = min_time_ns(iters, || {
            let mut acc = 0u64;
            for key in &keys {
                acc = acc.wrapping_add(table.lookup_idx(key).map_or(u64::MAX, |i| i as u64));
            }
            acc
        });
        let (tcam_indexed_ns, sum_d) = min_time_ns(iters, || {
            let mut acc = 0u64;
            for key in &keys {
                acc = acc.wrapping_add(
                    range_index.lookup(key, &mut qscratch).map_or(u64::MAX, |i| i as u64),
                );
            }
            acc
        });
        assert_eq!(sum_c, sum_d, "timed TCAM runs must agree with the verified verdicts");

        let hits = linear_verdicts.iter().filter(|v| v.is_some()).count();
        points.push(IndexPoint {
            n_rules,
            entries: table.len(),
            skipped_empty: table.skipped_empty,
            total_cuts: range_index.total_cuts(),
            float_linear_ns,
            float_indexed_ns,
            tcam_linear_ns,
            tcam_indexed_ns,
            hit_rate: hits as f64 / rows.len() as f64,
        });
    }

    for p in &points {
        let fs = p.float_linear_ns as f64 / p.float_indexed_ns.max(1) as f64;
        let ts = p.tcam_linear_ns as f64 / p.tcam_indexed_ns.max(1) as f64;
        eprintln!(
            "bench_report: rule_index {} rules: float {:.2}x, tcam {:.2}x",
            p.n_rules, fs, ts
        );
        if p.n_rules >= 256 && (fs < 2.0 || ts < 2.0) {
            eprintln!(
                "bench_report: index speedup below the 2x gate at {} rules (float {fs:.2}x, tcam {ts:.2}x)",
                p.n_rules
            );
            std::process::exit(1);
        }
    }
    points
}

/// Replay-trace parity: every FL feature row of a fresh benign+flood
/// trace classified three ways — serial linear scan, serial `Pipeline`
/// batch (indexed), and 8-shard `ShardedPipeline` batch (indexed, 8
/// workers) — must produce byte-identical verdict vectors. Returns the
/// row count and the serial backend's whitelist lookup counters.
fn run_replay_parity(
    seed: u64,
    fl_rules: &RuleSet,
    pl_rules: &RuleSet,
) -> (usize, iguard_switch::pipeline::WhitelistCounters) {
    let mut rng = Rng::seed_from_u64(seed ^ 0x9A41);
    let benign = benign_trace(120, 6.0, &mut rng);
    let flood = Attack::UdpDdos.trace(50, 6.0, &mut rng);
    let trace = Trace::merge(vec![benign, flood]);
    let flows = extract_flows(&trace, &ExtractConfig::default());
    let rows = &flows.features;

    let linear: Vec<bool> = rows.iter_rows().map(|r| fl_rules.lookup(r).is_none()).collect();

    let mut pipeline = Pipeline::new(PipelineConfig::default(), fl_rules.clone(), pl_rules.clone());
    let mut serial = Vec::new();
    pipeline.classify_batch(rows, &mut serial);

    let cfg = ShardedPipelineConfig::from(PipelineConfig::default()).with_shards(8);
    let mut sp = ShardedPipeline::new(cfg, fl_rules.clone(), pl_rules.clone());
    let mut sharded = Vec::new();
    iguard_runtime::par::with_workers(8, || sp.classify_batch(rows, &mut sharded));

    if serial != linear || sharded != linear {
        eprintln!("bench_report: replay-trace verdicts diverge between linear and indexed paths");
        std::process::exit(1);
    }
    (rows.rows(), pipeline.whitelist_counters())
}

/// Replay batch size of the columnar contender: one full 1024-row chunk
/// per `process_batch` call — the columnar sweet spot (larger batches
/// push the per-chunk working set past L2 and cost more than they
/// amortise). The scalar baseline runs at `ReplayConfig::default()`
/// (batch size 1), the operating point the replay harness shipped with
/// before the structure-of-arrays refactor. On this trace the replay
/// outputs are batch-size invariant — no flow ever reaches the blue
/// cutoff, so there is no control feedback whose timing could shift —
/// which is what makes the cross-batch-size verdict gate meaningful.
const SOA_BATCH: usize = 1024;

struct SoaReplay {
    packets: u64,
    scalar_min_ns: u64,
    soa_min_ns: u64,
    scalar_mpps: f64,
    soa_mpps: f64,
    speedup: f64,
}

/// Times the columnar `Pipeline` against the per-packet `ScalarPipeline`
/// on the replay path at one worker, min-over-iters, gating on
/// byte-identical outputs and on a ≥2× packets/sec advantage. The trace
/// is brown-heavy (an unreachable packet threshold keeps every flow below
/// the blue cutoff) so nearly every packet takes the deferred
/// packet-level lookup — the path where the scalar backend pays a feature
/// allocation and a full index probe per packet while the columnar
/// backend batches both.
fn run_soa_replay(seed: u64, iters: usize, fl_rules: &RuleSet, pl_rules: &RuleSet) -> SoaReplay {
    use iguard_switch::pipeline::ScalarPipeline;
    let mut rng = Rng::seed_from_u64(seed ^ 0x50A0_50A0);
    let benign = benign_trace(400, 12.0, &mut rng);
    let flood = Attack::UdpDdos.trace(120, 12.0, &mut rng);
    let trace = Trace::merge(vec![benign, flood]);
    // Unreachable packet threshold AND idle timeout: no flow ever goes
    // blue, so no digests flow back through the controller. With zero
    // control feedback the replay outputs are batch-size invariant, which
    // is what lets each contender run at its own operating point below
    // while the verdict gate still demands byte-identical outputs.
    let pipe_cfg = PipelineConfig::default().with_flow_table(
        FlowTableConfig::default().with_pkt_threshold(u64::MAX).with_timeout_ns(u64::MAX),
    );
    // Pre-refactor operating point: per-packet replay, no batching.
    let scalar_cfg = ReplayConfig::default();
    let soa_cfg = ReplayConfig::default().with_batch_size(SOA_BATCH);

    iguard_runtime::par::with_workers(1, || {
        let run_one = |dp: &mut dyn DataPlane, cfg: &ReplayConfig| {
            let mut controller = Controller::new(ControllerConfig::default());
            let t = Instant::now();
            let report = replay(&trace, dp, &mut controller, cfg);
            let ns = t.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            (ns, report, dp.counters(), dp.whitelist_counters(), dp.blacklist_len())
        };

        let mut scalar_min = u64::MAX;
        let mut soa_min = u64::MAX;
        let mut packets = 0u64;
        // One retry round: a background-noise burst spanning several
        // iterations can sink either side's min; a genuine regression
        // fails both attempts. Mins accumulate across attempts.
        for attempt in 0..2 {
            for _ in 0..iters {
                let mut sp = ScalarPipeline::new(pipe_cfg, fl_rules.clone(), pl_rules.clone());
                let (s_ns, s_report, s_paths, s_wl, s_bl) = run_one(&mut sp, &scalar_cfg);
                let mut bp = Pipeline::new(pipe_cfg, fl_rules.clone(), pl_rules.clone());
                let (b_ns, b_report, b_paths, b_wl, b_bl) = run_one(&mut bp, &soa_cfg);
                let same = (s_report.tp, s_report.fp, s_report.tn, s_report.fn_)
                    == (b_report.tp, b_report.fp, b_report.tn, b_report.fn_)
                    && s_report.dropped == b_report.dropped
                    && s_report.digests == b_report.digests
                    && s_paths == b_paths
                    && s_wl == b_wl
                    && s_bl == b_bl;
                if !same {
                    eprintln!("bench_report: SoA replay outputs diverge from the scalar oracle");
                    std::process::exit(1);
                }
                scalar_min = scalar_min.min(s_ns);
                soa_min = soa_min.min(b_ns);
                packets = b_report.packets;
            }
            if scalar_min as f64 / soa_min.max(1) as f64 >= 2.0 {
                break;
            }
            if attempt == 0 {
                eprintln!("bench_report: SoA gate below 2.0x, measuring one more round");
            }
        }

        let to_mpps = |ns: u64| packets as f64 / (ns as f64 / 1e9) / 1e6;
        let speedup = scalar_min as f64 / soa_min.max(1) as f64;
        if speedup < 2.0 {
            eprintln!(
                "bench_report: SoA replay speedup {speedup:.2}x < 2.0x gate \
                 (scalar {scalar_min} ns, columnar {soa_min} ns over {packets} packets)"
            );
            std::process::exit(1);
        }
        SoaReplay {
            packets,
            scalar_min_ns: scalar_min,
            soa_min_ns: soa_min,
            scalar_mpps: to_mpps(scalar_min),
            soa_mpps: to_mpps(soa_min),
            speedup,
        }
    })
}

/// Replay batch size of the streaming sweep: large enough to amortise
/// control-loop ticks over the million-flow run.
const STREAM_BATCH: usize = 8192;

/// Exact-table slot budgets the sketched points run under. The streaming
/// workload keeps ~1.3k flows concurrently resident regardless of total
/// flow count, so 512 slots models a moderately starved table and 128 a
/// severely starved one — both force continuous eviction churn.
const STREAM_BUDGET_SLOTS: [usize; 2] = [512, 128];

/// Pipeline configuration shared by every streaming contender.
fn stream_pipe_cfg() -> PipelineConfig {
    PipelineConfig::default().with_flow_table(FlowTableConfig::default().with_pkt_threshold(4))
}

/// One streaming-sweep contender: its replay report, final blacklist,
/// wall-clock, and (for sketched backends) the sketch statistics.
struct StreamRun {
    label: String,
    wall_ns: u64,
    report: ReplayReport,
    blacklist: Vec<iguard_flow::five_tuple::FiveTuple>,
    stats: Option<iguard_switch::SketchStats>,
}

fn run_stream_once(scfg: &StreamingConfig, dp: &mut dyn DataPlane, label: &str) -> StreamRun {
    let mut source = StreamingTrace::new(scfg.clone());
    let mut controller = Controller::new(ControllerConfig::default());
    let replay_cfg = ReplayConfig::default().with_batch_size(STREAM_BATCH);
    let t = Instant::now();
    let report = replay_stream(&mut source, dp, &mut controller, &replay_cfg);
    let wall_ns = t.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    StreamRun {
        label: label.into(),
        wall_ns,
        report,
        blacklist: dp.blacklist_contents(),
        stats: dp.sketch_stats(),
    }
}

/// Marginal-allocation probe for the buffer-reuse audit. Runs the full
/// streaming replay at `flows` and at `2 × flows` and compares allocator
/// call deltas: everything allocated once (source lanes, sketches,
/// replay buffers, telemetry handles) cancels out of the margin, so the
/// difference measures steady-state allocations only. The gate demands
/// strictly fewer marginal allocations than marginal batches — i.e. the
/// per-batch hot path performs no heap allocation, with room for the
/// amortised (logarithmic) growth of the digest and blacklist
/// containers.
struct AllocProbe {
    base_flows: u64,
    marginal_batches: u64,
    marginal_allocs: u64,
}

fn run_alloc_probe(seed: u64, fl_rules: &RuleSet, pl_rules: &RuleSet, flows: usize) -> AllocProbe {
    let run = |n_flows: usize| -> (u64, u64) {
        let scfg = StreamingConfig::default().with_seed(seed).with_total_flows(n_flows as u64);
        let mut source = StreamingTrace::new(scfg);
        let scfg7 = SketchedPipelineConfig::default()
            .with_pipeline(stream_pipe_cfg())
            .with_budget_bytes(Some(
                (n_flows / 16).max(64) * iguard_flow::table::FlowShard::slot_bytes(),
            ))
            .with_promote_threshold(2)
            .with_eviction(SketchEviction::TwoQ);
        let mut dp = SketchedPipeline::new(scfg7, fl_rules.clone(), pl_rules.clone());
        let mut controller = Controller::new(ControllerConfig::default());
        let replay_cfg = ReplayConfig::default().with_batch_size(512);
        let before = alloc_calls();
        let report = replay_stream(&mut source, &mut dp, &mut controller, &replay_cfg);
        let allocs = alloc_calls() - before;
        (allocs, report.packets.div_ceil(512))
    };
    let (allocs_n, batches_n) = run(flows);
    let (allocs_2n, batches_2n) = run(flows * 2);
    AllocProbe {
        base_flows: flows as u64,
        marginal_batches: batches_2n.saturating_sub(batches_n),
        marginal_allocs: allocs_2n.saturating_sub(allocs_n),
    }
}

/// The PR-7 tentpole sweep: a streaming (never materialised) trace of
/// `IGUARD_PR7_FLOWS` flows — one million by default, a few thousand in
/// smoke — replayed through the exact `Pipeline`, the `SketchedPipeline`
/// in exact mode (infinite budget, fingerprint-gated against the exact
/// run), and sketched points at `flows/8` and `flows/64` slot budgets.
/// Hard gates:
///
/// * exact-mode sketched run must match the exact pipeline's confusion
///   matrix, digest count, packet count, and blacklist;
/// * every budgeted point must respect its byte budget after the run and
///   must not invent detections its exact twin never made (FP counts on
///   the budgeted path stay ≤ the exact path's — eviction can only lose
///   state, and lost state biases toward the whitelist's PL fallback);
/// * the marginal-allocation probe must show < 1 allocation per batch.
fn run_streaming_sweep(
    seed: u64,
    smoke: bool,
    fl_rules: &RuleSet,
    pl_rules: &RuleSet,
) -> (StreamingConfig, Vec<StreamRun>, AllocProbe) {
    let flows: usize = std::env::var("IGUARD_PR7_FLOWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 20_000 } else { 1_000_000 });
    let scfg = StreamingConfig::default().with_seed(seed ^ 0x57E4).with_total_flows(flows as u64);

    let mut runs = Vec::new();

    eprintln!("bench_report: streaming sweep at {flows} flows (exact pipeline)");
    let mut exact = Pipeline::new(stream_pipe_cfg(), fl_rules.clone(), pl_rules.clone());
    runs.push(run_stream_once(&scfg, &mut exact, "exact_pipeline"));

    eprintln!("bench_report: streaming sweep (sketched, exact mode)");
    let sk_exact_cfg = SketchedPipelineConfig::default().with_pipeline(stream_pipe_cfg());
    let mut sk_exact = SketchedPipeline::new(sk_exact_cfg, fl_rules.clone(), pl_rules.clone());
    runs.push(run_stream_once(&scfg, &mut sk_exact, "sketched_exact"));

    // Fingerprint gate: exact-mode sketched == exact pipeline.
    {
        let (e, s) = (&runs[0], &runs[1]);
        let same = (e.report.tp, e.report.fp, e.report.tn, e.report.fn_)
            == (s.report.tp, s.report.fp, s.report.tn, s.report.fn_)
            && e.report.packets == s.report.packets
            && e.report.digests == s.report.digests
            && e.blacklist == s.blacklist;
        if !same {
            eprintln!("bench_report: sketched exact mode diverged from the exact pipeline");
            std::process::exit(1);
        }
    }

    for slots in STREAM_BUDGET_SLOTS {
        eprintln!("bench_report: streaming sweep (sketched, {slots}-slot budget)");
        let cfg = SketchedPipelineConfig::default()
            .with_pipeline(stream_pipe_cfg())
            .with_budget_bytes(Some(slots * iguard_flow::table::FlowShard::slot_bytes()))
            .with_promote_threshold(2)
            .with_eviction(SketchEviction::TwoQ);
        let mut dp = SketchedPipeline::new(cfg, fl_rules.clone(), pl_rules.clone());
        let run = run_stream_once(&scfg, &mut dp, &format!("sketched_budget_{slots}"));
        let stats = run.stats.expect("sketched backend reports stats");
        if stats.tracked > stats.max_tracked
            || stats.budget_bytes.is_some_and(|b| stats.resident_bytes > b)
        {
            eprintln!(
                "bench_report: budget breached at {slots} slots: tracked {} / {} \
                 resident {} / {:?}",
                stats.tracked, stats.max_tracked, stats.resident_bytes, stats.budget_bytes
            );
            std::process::exit(1);
        }
        let exact_report = &runs[0].report;
        if run.report.packets != exact_report.packets
            || run.report.tp + run.report.fn_ != exact_report.tp + exact_report.fn_
        {
            eprintln!("bench_report: budgeted stream drifted from the exact stream");
            std::process::exit(1);
        }
        // FP/FN bound: every verdict flip vs the exact run traces back to
        // shed state — a packet the sketch absorbed, or a flow restarted
        // by eviction (≤ pkt_threshold re-windowed packets each). The
        // deltas must stay within that shed-work budget; a backend that
        // drifted beyond it would be corrupting state, not shedding it.
        let shed_budget = stats.absorbed + stats.evicted * 4;
        let fp_delta = run.report.fp.abs_diff(exact_report.fp);
        let fn_delta = run.report.fn_.abs_diff(exact_report.fn_);
        if fp_delta > shed_budget || fn_delta > shed_budget {
            eprintln!(
                "bench_report: budget of {slots} slots drifts beyond its shed work \
                 (fp Δ{fp_delta}, fn Δ{fn_delta}, budget {shed_budget})"
            );
            std::process::exit(1);
        }
        if exact_report.tp > 0 && run.report.tp == 0 {
            eprintln!("bench_report: budget of {slots} slots lost all detections");
            std::process::exit(1);
        }
        runs.push(run);
    }

    eprintln!("bench_report: streaming allocation probe (buffer-reuse audit)");
    let probe_flows = if smoke { 2_000 } else { 4_000 };
    let probe = run_alloc_probe(seed, fl_rules, pl_rules, probe_flows);
    eprintln!(
        "bench_report: alloc probe: {} marginal allocs over {} marginal batches",
        probe.marginal_allocs, probe.marginal_batches
    );
    if probe.marginal_allocs >= probe.marginal_batches {
        eprintln!(
            "bench_report: streaming path allocates per batch ({} allocs / {} batches)",
            probe.marginal_allocs, probe.marginal_batches
        );
        std::process::exit(1);
    }

    (scfg, runs, probe)
}

// ---------------------------------------------------------------------------
// PR-8: the online drift-adaptation loop — drift detection over the digest
// stream, warm retrain, minimal rule diff, transactional hitless swap.

/// Batch size for the swap-window and scripted-convergence replays — small
/// enough that the scripted staging ticks fall mid-trace.
const SWAP_BATCH: usize = 64;

/// Interleaved trace of `flows` flows × `pkts_per_flow` packets with
/// per-flow-constant wire length (flows with `f % 3 == 0` send 1400 B, the
/// rest 120 B), so each flow classifies identically on every
/// (re-)derivation — the deterministic workload the ruleset-swap test
/// suite replays, reproduced here for the gated sweep.
fn stable_swap_trace(flows: u16, pkts_per_flow: u64) -> Trace {
    let mut t = Trace::new();
    for i in 0..(flows as u64 * pkts_per_flow) {
        let f = (i % flows as u64) as u16;
        let malicious = f % 3 == 0;
        let len = if malicious { 1400 } else { 120 };
        let pkt = Packet {
            ts_ns: i * 1_000_000,
            five: FiveTuple::new(0x0A00_0001, 0xC0A8_0101, 30_000 + f, 80, PROTO_TCP),
            wire_len: len,
            ttl: 64,
            flags: TcpFlags::default(),
        };
        t.push(pkt, malicious);
    }
    t
}

fn accept_all(dim: usize) -> RuleSet {
    RuleSet {
        bounds: vec![(0.0, 1.0); dim],
        whitelist: vec![Hypercube {
            lo: vec![f32::NEG_INFINITY; dim],
            hi: vec![f32::INFINITY; dim],
        }],
        total_regions: 1,
    }
}

/// FL whitelist benign iff mean packet size (feature 2) < `cut`.
fn fl_mean_size_below(cut: f32) -> RuleSet {
    let lo = vec![f32::NEG_INFINITY; 13];
    let mut hi = vec![f32::INFINITY; 13];
    hi[2] = cut;
    RuleSet {
        bounds: vec![(0.0, 2000.0); 13],
        whitelist: vec![Hypercube { lo, hi }],
        total_regions: 2,
    }
}

fn swap_pipe_cfg() -> PipelineConfig {
    PipelineConfig::default().with_flow_table(
        FlowTableConfig::default().with_slots_per_table(4096).with_pkt_threshold(4),
    )
}

/// One scripted swap-under-chaos replay, captured for exact equality.
#[derive(Debug, PartialEq)]
struct SwapChaosRun {
    confusion: (u64, u64, u64, u64),
    blacklist: Vec<FiveTuple>,
    version: u64,
    counters: RulesetCounters,
    table: Vec<RangeEntry>,
    swaps: u64,
    retries: u64,
}

fn run_swap_chaos_case(
    trace: &Trace,
    fl: &RuleSet,
    shards: usize,
    workers: usize,
    chaos: &ChaosConfig,
) -> SwapChaosRun {
    iguard_runtime::par::with_workers(workers, || {
        let cfg = ShardedPipelineConfig::from(swap_pipe_cfg()).with_shards(shards);
        let mut dp = ShardedPipeline::new(cfg, fl.clone(), accept_all(4));
        let mut controller = Controller::new(ControllerConfig::default());
        let r = replay_chaos(
            trace,
            &mut dp,
            &mut controller,
            &ReplayConfig::default().with_batch_size(SWAP_BATCH),
            chaos,
        );
        SwapChaosRun {
            confusion: (r.tp, r.fp, r.tn, r.fn_),
            blacklist: dp.blacklist_contents(),
            version: dp.ruleset_version(),
            counters: dp.ruleset_counters(),
            table: dp.ruleset_table().entries().to_vec(),
            swaps: r.ruleset_swaps,
            retries: r.ruleset_retries,
        }
    })
}

/// The scripted two-transaction schedule: v1 bootstraps a 6-entry table at
/// tick 1, v2 swaps to a table sharing half of it at tick 6. Both carry
/// the same float whitelist, so delivery timing cannot alter any flow
/// label and exact fingerprint equality is the right convergence oracle.
fn scripted_swap_chaos(fl: &RuleSet, plan: FaultPlan) -> ChaosConfig {
    let mut t1 = RangeTable::new(vec![8, 8]);
    for p in 0..6u32 {
        t1.push(RangeEntry { fields: vec![(p * 10, p * 10 + 9), (0, 255)], priority: p });
    }
    let mut t2 = RangeTable::new(vec![8, 8]);
    for p in 0..3u32 {
        t2.push(RangeEntry { fields: vec![(p * 10, p * 10 + 9), (0, 255)], priority: p });
    }
    for p in 6..9u32 {
        t2.push(RangeEntry { fields: vec![(p * 7, p * 7 + 3), (1, 200)], priority: p });
    }
    ChaosConfig::default()
        .with_plan(plan)
        .with_resync_interval(4)
        .with_ruleset_swap(1, RulesetTxn::full_install(1, &t1, fl.clone()))
        .with_ruleset_swap(6, RulesetTxn::diff(2, &t1, &t2, fl.clone()))
}

/// Rendered JSON sections of the PR-8 report, assembled where the hard
/// gates run so the booleans and the numbers they guard stay together.
struct SwapSweepDoc {
    drift_loop: String,
    rule_diff: String,
    swap_window: String,
    fault_convergence: String,
    determinism: String,
    versioning: String,
}

/// The PR-8 tentpole sweep: drives the adaptation loop end to end — train
/// and install generation 1, watch a calm then a shifted traffic regime
/// through the drift detector, warm-retrain on the shifted window, compile
/// generation 2, compute the minimal diff and deliver it through a dark
/// action channel — then gates the swap path itself: zero packets may see
/// a blend of two rulesets mid-swap, scripted swaps under lossy/outage
/// plans must converge on the fault-free fingerprint, and the whole run
/// must be byte-identical at 1/2/8 shards × workers. Every gate aborts the
/// run before a report is written.
fn run_ruleset_swap_sweep(seed: u64, pl_rules: &RuleSet) -> SwapSweepDoc {
    let mut rng = Rng::seed_from_u64(seed ^ 0x0DD5_11F7);
    let extract_cfg = ExtractConfig::default();
    let teacher = OracleTeacher(|x: &[f32]| x[10] < 0.0008 || x[2] > 1200.0);
    let ig = IGuardConfig { n_trees: 7, subsample: 64, k_augment: 64, ..Default::default() };

    // --- Generation 1: train, compile, install as transaction v1.
    let train_trace = benign_trace(250, 10.0, &mut rng);
    let train = extract_flows(&train_trace, &extract_cfg);
    let mut forest = IGuardForest::fit(&train.features, &teacher, &ig, &mut rng);
    forest.distill(&train.features, &teacher, ig.k_augment, &mut rng);
    let old_rules = RuleSet::from_iguard(&forest, 600_000).expect("FL rule budget");
    let old_table = compile_ruleset(&old_rules, &specs_for(&old_rules));

    let drift_cfg = DriftConfig::default()
        .with_window(64)
        .with_min_samples(32)
        .with_threshold(0.2)
        .with_cooldown(64);
    let mut controller =
        Controller::new(ControllerConfig { drift: Some(drift_cfg), ..Default::default() });
    let mut pipeline = Pipeline::new(swap_pipe_cfg(), old_rules.clone(), pl_rules.clone());
    pipeline
        .apply_ruleset(&RulesetTxn::full_install(1, &old_table, old_rules.clone()))
        .expect("bootstrap v1");

    // --- Calm segment: the detector arms and freezes its reference.
    let replay_cfg = ReplayConfig::default().with_batch_size(1024);
    let calm = benign_trace(220, 10.0, &mut rng);
    let r_calm = replay(&calm, &mut pipeline, &mut controller, &replay_cfg);
    if controller.take_drift_trigger() {
        eprintln!("bench_report: drift fired on calm traffic");
        std::process::exit(1);
    }
    let calm_fraction = controller.drift_detector().map_or(0.0, |d| d.window_fraction());
    let reference = controller.drift_detector().and_then(|d| d.reference());

    // --- Regime shift: a flood joins; the malicious digest fraction jumps.
    let shifted = Trace::merge(vec![
        benign_trace(60, 10.0, &mut rng),
        Attack::UdpDdos.trace(90, 10.0, &mut rng),
    ]);
    let r_shift = replay(&shifted, &mut pipeline, &mut controller, &replay_cfg);
    if !controller.take_drift_trigger() {
        eprintln!("bench_report: regime shift did not fire the drift trigger");
        std::process::exit(1);
    }
    let det = controller.drift_detector().expect("drift configured");
    let (drift_observed, drift_fires, shifted_fraction) =
        (det.observed(), det.fires(), det.window_fraction());

    // --- Warm retrain on the shifted window; compile generation 2; diff.
    let retrain = extract_flows(&shifted, &extract_cfg);
    let mut new_forest = forest.refit_warm(&retrain.features, &teacher, &ig, &mut rng);
    new_forest.distill(&retrain.features, &teacher, ig.k_augment, &mut rng);
    let new_rules = RuleSet::from_iguard(&new_forest, 600_000).expect("refit FL budget");
    let new_table = compile_ruleset(&new_rules, &specs_for(&new_rules));
    let v2 = RulesetTxn::diff(2, &old_table, &new_table, new_rules.clone());
    let retrain_churn = v2.churn();
    let retrain_full = old_table.len() + new_table.len();
    if retrain_churn > retrain_full {
        eprintln!("bench_report: diff churn {retrain_churn} exceeds full reinstall {retrain_full}");
        std::process::exit(1);
    }

    // --- Deliver v2 through the fallible control loop: the action channel
    // is dark for the first 4 ticks, so the transaction must survive on
    // backoff and land after the heal.
    controller.stage_ruleset(v2);
    let before = pipeline.ruleset_counters();
    let outage_plan =
        FaultPlan::none().with_seed(seed ^ 0xAC70).with_outage(ChannelKind::Action, 0, 4);
    let chaos = ChaosConfig::default().with_plan(outage_plan).with_resync_interval(4);
    let settle = Trace::merge(vec![
        benign_trace(80, 8.0, &mut rng),
        Attack::UdpDdos.trace(40, 8.0, &mut rng),
    ]);
    let r_settle = replay_chaos(&settle, &mut pipeline, &mut controller, &replay_cfg, &chaos);
    let delivered_version = pipeline.ruleset_version();
    if delivered_version != 2 || r_settle.ruleset_swaps != 1 {
        eprintln!(
            "bench_report: drift transaction did not converge (version {delivered_version}, swaps {})",
            r_settle.ruleset_swaps
        );
        std::process::exit(1);
    }
    if r_settle.ruleset_retries == 0 {
        eprintln!("bench_report: action outage produced no ruleset retries");
        std::process::exit(1);
    }
    let after = pipeline.ruleset_counters();
    let tcam_writes = (after.installed + after.removed) - (before.installed + before.removed);
    if tcam_writes > retrain_churn as u64 {
        eprintln!("bench_report: TCAM writes {tcam_writes} exceed the diff size {retrain_churn}");
        std::process::exit(1);
    }

    // --- Perturbed-retrain point: a quarter of the live table dropped, a
    // fifth re-added at shifted priority — the incremental-retrain shape
    // where the minimal diff must strictly beat tearing the table down and
    // reinstalling it wholesale.
    let old_entries = canonical_entries(&old_table);
    if old_entries.len() < 8 {
        eprintln!("bench_report: compiled table too small ({}) to perturb", old_entries.len());
        std::process::exit(1);
    }
    let mut perturbed = RangeTable::new(old_table.field_bits.clone());
    for (i, e) in old_entries.iter().enumerate() {
        if i % 4 != 3 {
            perturbed.push(e.clone());
        }
    }
    for e in old_entries.iter().step_by(5) {
        let mut shifted_entry = e.clone();
        shifted_entry.priority = shifted_entry.priority.saturating_add(1);
        perturbed.push(shifted_entry);
    }
    let vp = RulesetTxn::diff(2, &old_table, &perturbed, old_rules.clone());
    let perturbed_full = old_table.len() + perturbed.len();
    if vp.churn() == 0 || vp.churn() >= perturbed_full {
        eprintln!(
            "bench_report: perturbed diff churn {} not below full reinstall {perturbed_full}",
            vp.churn()
        );
        std::process::exit(1);
    }

    // --- Swap-window gate: every packet in a mid-stream swap replay must
    // see the old generation's verdict or the new one's — never a blend.
    let wtrace = stable_swap_trace(40, 12);
    let old_fl = fl_mean_size_below(800.0);
    let new_fl = accept_all(13);
    let mut wtable = RangeTable::new(vec![4, 4]);
    wtable.push(RangeEntry { fields: vec![(0, 15), (0, 15)], priority: 0 });
    let wtxn = RulesetTxn::full_install(1, &wtable, new_fl.clone());
    let swap_at = wtrace.packets.len().div_ceil(SWAP_BATCH) / 2;
    let wrun = |fl: RuleSet, swap: Option<usize>| -> Vec<PacketVerdict> {
        let mut dp = Pipeline::new(swap_pipe_cfg(), fl, accept_all(4));
        let mut outcomes: Vec<ProcessOutcome> = Vec::new();
        let mut verdicts = Vec::with_capacity(wtrace.packets.len());
        for (b, chunk) in wtrace.packets.chunks(SWAP_BATCH).enumerate() {
            if swap == Some(b) {
                dp.apply_ruleset(&wtxn).expect("mid-stream swap");
            }
            dp.process_batch(chunk, &mut outcomes);
            if outcomes.len() != chunk.len() {
                eprintln!("bench_report: swap window dropped a packet");
                std::process::exit(1);
            }
            verdicts.extend(outcomes.iter().map(|o| o.verdict));
        }
        verdicts
    };
    let old_run = wrun(old_fl.clone(), None);
    let new_run = wrun(new_fl, None);
    let swap_run = wrun(old_fl, Some(swap_at));
    let boundary = swap_at * SWAP_BATCH;
    if swap_run[..boundary] != old_run[..boundary] {
        eprintln!("bench_report: pre-swap prefix diverged from the old generation");
        std::process::exit(1);
    }
    let mut disagreements = 0u64;
    let mut mixed = 0u64;
    for i in 0..swap_run.len() {
        disagreements += u64::from(old_run[i] != new_run[i]);
        mixed += u64::from(swap_run[i] != old_run[i] && swap_run[i] != new_run[i]);
    }
    if mixed != 0 || disagreements == 0 {
        eprintln!(
            "bench_report: swap window misclassified {mixed} packets \
             ({disagreements} generation disagreements)"
        );
        std::process::exit(1);
    }

    // --- Scripted convergence: the same two-transaction schedule under a
    // fault-free, a lossy and a dark action channel.
    let ctrace = stable_swap_trace(60, 12);
    let cfl = fl_mean_size_below(800.0);
    let clean =
        run_swap_chaos_case(&ctrace, &cfl, 1, 1, &scripted_swap_chaos(&cfl, FaultPlan::none()));
    if clean.version != 2 || clean.swaps != 2 || clean.retries != 0 {
        eprintln!("bench_report: fault-free scripted swap did not land both transactions");
        std::process::exit(1);
    }

    // Determinism gate: byte-identical at 1/2/8 shards × workers, under
    // the fault-free and the lossy plan.
    let mut det_points: Vec<(&str, usize, usize)> = Vec::new();
    for (plan_label, plan) in
        [("none", FaultPlan::none()), ("lossy_0.2", FaultPlan::lossy(seed ^ 0x5CA1, 0.2))]
    {
        let chaos = scripted_swap_chaos(&cfl, plan);
        let base = run_swap_chaos_case(&ctrace, &cfl, 1, 1, &chaos);
        for (shards, workers) in [(2usize, 2usize), (8, 8)] {
            let got = run_swap_chaos_case(&ctrace, &cfl, shards, workers, &chaos);
            if got != base {
                eprintln!(
                    "bench_report: swap run diverged at {shards} shards / {workers} workers \
                     (plan {plan_label})"
                );
                std::process::exit(1);
            }
            det_points.push((plan_label, shards, workers));
        }
    }

    let lossy = run_swap_chaos_case(
        &ctrace,
        &cfl,
        2,
        2,
        &scripted_swap_chaos(&cfl, FaultPlan::lossy(seed ^ 0x1055, 0.25)),
    );
    let outage = run_swap_chaos_case(
        &ctrace,
        &cfl,
        2,
        2,
        &scripted_swap_chaos(
            &cfl,
            FaultPlan::none().with_seed(seed ^ 3).with_outage(ChannelKind::Action, 0, 8),
        ),
    );
    if outage.retries == 0 || outage.counters.stale != 0 {
        eprintln!(
            "bench_report: outage swap must retry with zero stale deliveries (retries {}, stale {})",
            outage.retries, outage.counters.stale
        );
        std::process::exit(1);
    }
    for (label, faulty) in [("lossy_0.25", &lossy), ("action_outage_0_8", &outage)] {
        if faulty.version != 2 || faulty.swaps != 2 {
            eprintln!("bench_report: {label} swap did not converge");
            std::process::exit(1);
        }
        if faulty.blacklist != clean.blacklist || faulty.table != clean.table {
            eprintln!("bench_report: {label} swap diverged from the fault-free fingerprint");
            std::process::exit(1);
        }
        // The PR-4 lossy-action invariant, which the swap must not weaken:
        // TPs may trade for FNs while installs retry, FPs never inflate
        // and the malicious packet population is conserved.
        let conserved =
            faulty.confusion.0 + faulty.confusion.3 == clean.confusion.0 + clean.confusion.3;
        if faulty.confusion.1 != clean.confusion.1 || !conserved {
            eprintln!("bench_report: {label} swap inflated FPs or lost malicious packets");
            std::process::exit(1);
        }
    }

    // --- Idempotent-replay and stale-rejection accounting (also puts the
    // replayed/stale telemetry counters on the board for the snapshot).
    let afl = accept_all(13);
    let mut acct = Pipeline::new(swap_pipe_cfg(), afl.clone(), accept_all(4));
    let mut atable = RangeTable::new(vec![4]);
    atable.push(RangeEntry { fields: vec![(0, 15)], priority: 0 });
    let a1 = RulesetTxn::full_install(1, &atable, afl.clone());
    acct.apply_ruleset(&a1).expect("v1");
    acct.apply_ruleset(&a1).expect("replaying v1 must be a no-op");
    let stale_rejected = acct.apply_ruleset(&RulesetTxn::full_install(9, &atable, afl)).is_err();
    let ac = acct.ruleset_counters();
    if !stale_rejected || (ac.swaps, ac.replayed, ac.stale) != (1, 1, 1) {
        eprintln!("bench_report: replay/stale accounting broken: {ac:?}");
        std::process::exit(1);
    }

    // --- Assemble the report sections.
    let mut delivery_json = json::Object::new();
    delivery_json
        .u64("settle_digests", r_settle.digests)
        .u64("retries", r_settle.ruleset_retries)
        .u64("swaps", r_settle.ruleset_swaps)
        .u64("delivered_version", delivered_version)
        .u64("tcam_writes", tcam_writes);
    let mut drift_json = json::Object::new();
    drift_json
        .u64("window", drift_cfg.window as u64)
        .u64("min_samples", drift_cfg.min_samples as u64)
        .f64("threshold", drift_cfg.threshold)
        .u64("cooldown", drift_cfg.cooldown)
        .u64("calm_digests", r_calm.digests)
        .u64("shifted_digests", r_shift.digests)
        .u64("observed", drift_observed)
        .u64("fires", drift_fires)
        .f64("reference_fraction", reference.unwrap_or(0.0))
        .f64("calm_fraction", calm_fraction)
        .f64("shifted_fraction", shifted_fraction)
        // Hard-gated above: calm traffic quiet, the regime shift fired.
        .bool("fired_on_calm", false)
        .bool("fired_on_shift", true)
        .raw("delivery", delivery_json.render(2));

    let mut retrain_json = json::Object::new();
    retrain_json
        .u64("old_entries", old_table.len() as u64)
        .u64("new_entries", new_table.len() as u64)
        .u64("shared_entries", ((retrain_full - retrain_churn) / 2) as u64)
        .u64("diff_churn", retrain_churn as u64)
        .u64("full_reinstall", retrain_full as u64)
        .u64("tcam_writes", tcam_writes);
    let mut perturbed_json = json::Object::new();
    perturbed_json
        .u64("old_entries", old_table.len() as u64)
        .u64("new_entries", perturbed.len() as u64)
        .u64("shared_entries", ((perturbed_full - vp.churn()) / 2) as u64)
        .u64("diff_churn", vp.churn() as u64)
        .u64("full_reinstall", perturbed_full as u64);
    let mut diff_json = json::Object::new();
    diff_json
        // Hard-gated above: writes ≤ diff churn ≤ full reinstall on the
        // warm retrain, and strictly below it on the perturbed retrain.
        .bool("writes_at_most_diff", true)
        .bool("perturbed_diff_below_full_reinstall", true)
        .raw("warm_retrain", retrain_json.render(2))
        .raw("perturbed_retrain", perturbed_json.render(2));

    let mut window_json = json::Object::new();
    window_json
        .u64("packets", swap_run.len() as u64)
        .u64("batch_size", SWAP_BATCH as u64)
        .u64("swap_batch", swap_at as u64)
        .u64("generation_disagreements", disagreements)
        // Hard-gated above: zero packets saw a verdict belonging to
        // neither generation, and the pre-swap prefix was byte-identical
        // to the pure-old run.
        .u64("misclassified_during_swap", mixed)
        .bool("prefix_identical_to_old", true)
        .bool("hitless", true);

    let scenario_json = |label: &str, r: &SwapChaosRun| -> String {
        let mut o = json::Object::new();
        o.str("scenario", label)
            .u64("version", r.version)
            .u64("swaps", r.swaps)
            .u64("retries", r.retries)
            .u64("installed", r.counters.installed)
            .u64("removed", r.counters.removed)
            .u64("stale", r.counters.stale)
            .u64("tp", r.confusion.0)
            .u64("fp", r.confusion.1)
            .u64("tn", r.confusion.2)
            .u64("fn", r.confusion.3)
            .u64("blacklist_len", r.blacklist.len() as u64)
            .u64("table_entries", r.table.len() as u64);
        o.render(2)
    };
    let scenarios = vec![
        scenario_json("fault_free", &clean),
        scenario_json("lossy_0.25", &lossy),
        scenario_json("action_outage_0_8", &outage),
    ];
    let mut conv_json = json::Object::new();
    conv_json
        // Hard-gated above for every faulted scenario.
        .bool("blacklist_matches_fault_free", true)
        .bool("table_matches_fault_free", true)
        .bool("no_fp_inflation", true)
        .bool("malicious_population_conserved", true)
        .raw("scenarios", json::array(&scenarios, 1));

    let mut det_points_json = Vec::new();
    for (plan_label, shards, workers) in det_points {
        let mut o = json::Object::new();
        o.str("plan", plan_label)
            .u64("shards", shards as u64)
            .u64("workers", workers as u64)
            .bool("identical_to_1x1", true);
        det_points_json.push(o.render(2));
    }
    let mut det_json = json::Object::new();
    det_json.bool("byte_identical", true).raw("points", json::array(&det_points_json, 1));

    let mut versioning_json = json::Object::new();
    versioning_json
        .u64("replayed_absorbed", ac.replayed)
        .u64("stale_rejected", ac.stale)
        .bool("replay_is_noop", true)
        .bool("version_gap_rejected_typed", true);

    SwapSweepDoc {
        drift_loop: drift_json.render(1),
        rule_diff: diff_json.render(1),
        swap_window: window_json.render(1),
        fault_convergence: conv_json.render(1),
        determinism: det_json.render(1),
        versioning: versioning_json.render(1),
    }
}

// ---------------------------------------------------------------------
// PR-9: the overload-resilience sweep — the adversarial scenario canon
// replayed through a deliberately starved flow table, scored per
// scenario and gated on grid determinism, observable degraded-mode
// hysteresis, bounded benign-FP inflation, post-storm reconvergence and
// the untouched golden exact path.
// ---------------------------------------------------------------------

/// Replay batch size of the overload sweep. Small enough that a storm's
/// calm tail spans many control ticks (the hysteresis exit needs
/// consecutive calm batches per shard, and time-to-mitigation is
/// measured in ticks), large enough to keep the 3×3 grid cheap.
const OVERLOAD_BATCH: usize = 1024;

/// Flow-table size of the overload sweep. The sharded backend divides
/// this across the 16 logical shards (512 / 16 = 32 slots per hash
/// table, × 2 tables = 64 flows per shard, 1024 fleet-wide) —
/// deliberately small enough that the canon storms overrun it, and large
/// enough per shard that a modest benign tail fits entirely resident
/// (the hysteresis exit needs genuinely calm windows, which a
/// capacity-4 shard can never produce under any tail).
const OVERLOAD_SLOTS: usize = 512;

/// Shard × worker grid every scenario's fingerprint is pinned across.
const OVERLOAD_GRID: [usize; 3] = [1, 2, 8];

fn overload_pipe_cfg() -> PipelineConfig {
    PipelineConfig::default().with_flow_table(
        FlowTableConfig::default().with_pkt_threshold(4).with_slots_per_table(OVERLOAD_SLOTS),
    )
}

/// Everything one overload replay produces that the scorecard and the
/// grid-determinism gate consume. `PartialEq` is the fingerprint: two
/// runs are "byte-identical" iff every field matches, including the full
/// mitigation log and the merged overload accounting.
#[derive(Clone, PartialEq)]
struct OverloadRun {
    confusion: (u64, u64, u64, u64),
    packets: u64,
    dropped: u64,
    digests: u64,
    blacklist: Vec<FiveTuple>,
    records: Vec<MitigationRecord>,
    unmitigated: u64,
    ttm_packets: Vec<u64>,
    ttm_ticks: Vec<u64>,
    overload: OverloadStats,
}

/// One scenario replay at a given shard/worker point. Returns the run
/// fingerprint plus the backend itself (the recovery gate keeps the
/// storm-worn pipeline of the 1×1 point alive for a follow-on replay).
fn run_overload_case(
    trace: &Trace,
    fl_rules: &RuleSet,
    pl_rules: &RuleSet,
    shards: usize,
    workers: usize,
) -> (OverloadRun, ShardedPipeline) {
    iguard_runtime::par::with_workers(workers, || {
        let cfg = ShardedPipelineConfig::from(overload_pipe_cfg()).with_shards(shards);
        let mut sp = ShardedPipeline::new(cfg, fl_rules.clone(), pl_rules.clone());
        let mut controller = Controller::new(ControllerConfig::default());
        let mut log = MitigationLog::default();
        let rcfg = ReplayConfig::default().with_batch_size(OVERLOAD_BATCH);
        let report = replay_chaos_traced(
            trace,
            &mut sp,
            &mut controller,
            &rcfg,
            &ChaosConfig::default(),
            Some(&mut log),
        );
        let run = OverloadRun {
            confusion: (report.tp, report.fp, report.tn, report.fn_),
            packets: report.packets,
            dropped: report.dropped,
            digests: report.digests,
            blacklist: sp.blacklist_contents(),
            unmitigated: log.unmitigated() as u64,
            ttm_packets: log.ttm_packets_sorted(),
            ttm_ticks: log.ttm_ticks_sorted(),
            records: log.records,
            overload: sp.overload_stats(),
        };
        (run, sp)
    })
}

/// The same scenario replay with the overload response disabled (an
/// unreachable degrade threshold, so nothing is ever shed at the source)
/// — the anchor of the bounded-FP-inflation gate.
fn run_overload_baseline(trace: &Trace, fl_rules: &RuleSet, pl_rules: &RuleSet) -> OverloadRun {
    iguard_runtime::par::with_workers(1, || {
        let pipe = overload_pipe_cfg()
            .with_overload(OverloadConfig::default().with_degrade_enter_milli(1001));
        let cfg = ShardedPipelineConfig::from(pipe).with_shards(1);
        let mut sp = ShardedPipeline::new(cfg, fl_rules.clone(), pl_rules.clone());
        let mut controller = Controller::new(ControllerConfig::default());
        let mut log = MitigationLog::default();
        let rcfg = ReplayConfig::default().with_batch_size(OVERLOAD_BATCH);
        let report = replay_chaos_traced(
            trace,
            &mut sp,
            &mut controller,
            &rcfg,
            &ChaosConfig::default(),
            Some(&mut log),
        );
        OverloadRun {
            confusion: (report.tp, report.fp, report.tn, report.fn_),
            packets: report.packets,
            dropped: report.dropped,
            digests: report.digests,
            blacklist: sp.blacklist_contents(),
            unmitigated: log.unmitigated() as u64,
            ttm_packets: log.ttm_packets_sorted(),
            ttm_ticks: log.ttm_ticks_sorted(),
            records: log.records,
            overload: sp.overload_stats(),
        }
    })
}

/// Shifts every packet of a trace `offset_ns` into the future, labels
/// preserved — used to schedule recovery segments and calm tails after a
/// storm has ended and its residents have timed out.
fn shift_trace(t: &Trace, offset_ns: u64) -> Trace {
    let mut out = Trace::new();
    for (p, &label) in t.packets.iter().zip(&t.labels) {
        let mut p = *p;
        p.ts_ns += offset_ns;
        out.push(p, label);
    }
    out
}

/// Builds one canon scenario's replay workload: benign background across
/// the storm window, the storm itself, and an *echo tail* — one small
/// benign flow set (~150 devices ≈ 750 flows, well under the 1024-slot
/// capacity and ~47 flows per logical shard against a per-shard capacity
/// of 64), replayed several times shifted past the idle timeout. The
/// first pass installs the keys (displacing stale storm residents);
/// every later pass is pure resident hits, which generate zero window
/// churn by construction, so each degraded shard's pressure window is
/// guaranteed to roll over calm and the hysteresis exit's calm-batch run
/// completes regardless of where the storm left the window phase.
/// Returns the merged trace and the storm's last timestamp.
fn overload_scenario_trace(sc: Scenario, seed: u64) -> (Trace, u64) {
    // Per-scenario intensity against the 1024-flow table: the churn
    // floods offer several times the table's capacity in live flows
    // (saturation-collision regime, the state-exhaustion signature); the
    // slow scenarios stay deliberately *under* capacity — stealth
    // traffic must not trip the pressure signal, only detection.
    let intensity = match sc {
        Scenario::StateExhaustion => 16_000,
        Scenario::PulseWave => 8_000,
        Scenario::Slowloris => 300,
        Scenario::C2Beacon => 200,
    };
    let window = 8.0;
    let salt = ALL_SCENARIOS.iter().position(|s| s.name() == sc.name()).unwrap_or(0) as u64;
    let mut rng = Rng::seed_from_u64(seed ^ 0x0E11_0AD0 ^ (salt << 8));
    let storm = sc.trace(intensity, window, &mut rng);
    let storm_end = storm.packets.last().map_or(0, |p| p.ts_ns);
    let background = benign_trace(60, window, &mut rng);
    // The tail starts 2.5 s after the storm ends — past the 2 s idle
    // timeout, so lingering storm residents are reclaimable on first
    // touch — and echoes the same flow set 8 more times at the same
    // spacing.
    const TAIL_ECHOES: u64 = 8;
    let tail_base = benign_trace(150, 12.0, &mut rng);
    let tail_span = tail_base.packets.last().map_or(0, |p| p.ts_ns) + 2_500_000_000;
    let mut segs = vec![background, storm];
    for e in 0..=TAIL_ECHOES {
        segs.push(shift_trace(&tail_base, storm_end + 2_500_000_000 + e * tail_span));
    }
    (Trace::merge(segs), storm_end)
}

/// CDF summary of a sorted sample set: count, mean, deciles, and tail
/// percentiles. Empty sets render as zeroed summaries with `count` 0.
fn cdf_json(sorted: &[u64], indent: usize) -> String {
    let pctl = |p: f64| -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        sorted[idx]
    };
    let mean = if sorted.is_empty() {
        0.0
    } else {
        sorted.iter().sum::<u64>() as f64 / sorted.len() as f64
    };
    let deciles: Vec<String> = (1..=10).map(|d| pctl(d as f64 / 10.0).to_string()).collect();
    let mut o = json::Object::new();
    o.u64("count", sorted.len() as u64)
        .f64("mean", mean)
        .u64("p50", pctl(0.5))
        .u64("p90", pctl(0.9))
        .u64("p99", pctl(0.99))
        .u64("max", sorted.last().copied().unwrap_or(0))
        .raw("deciles", json::array(&deciles, indent + 1));
    o.render(indent)
}

fn overload_stats_json(o: &OverloadStats, indent: usize) -> String {
    let mut j = json::Object::new();
    j.u64("pressure_milli", o.pressure.pressure_milli as u64)
        .u64("churn_milli_hwm", o.pressure.churn_milli_hwm as u64)
        .u64("occupancy_hwm", o.pressure.occupancy_hwm as u64)
        .u64("collision_window_hwm", o.pressure.collision_window_hwm)
        .u64("eviction_window_hwm", o.pressure.eviction_window_hwm)
        .u64("evictions", o.pressure.evictions)
        .u64("degraded_shards_at_end", o.degraded_shards as u64)
        .u64("degraded_entries", o.degraded_entries)
        .u64("degraded_exits", o.degraded_exits)
        .u64("degraded_batches", o.degraded_batches)
        .u64("shed_benign", o.shed_benign)
        .u64("shed_malicious", o.shed_malicious)
        .u64("admission_tightened", o.admission_tightened)
        .u64("digest_buffered_hwm", o.digest_buffered_hwm as u64);
    j.render(indent)
}

/// The PR-2 golden exact-path deployment (seed 0xC0FFEE, default-size
/// flow table, no storm), re-run under this binary so the overload layer
/// provably leaves the non-overloaded exact path untouched. Aborts if
/// the confusion matrix moved off the PR-2 constant.
fn run_golden_exact_gate() -> (u64, (u64, u64, u64, u64)) {
    const GOLDEN_CONFUSION: (u64, u64, u64, u64) = (3999, 1019, 1569, 172);
    let mut rng = Rng::seed_from_u64(0xC0FFEE);
    let cfg = ExtractConfig::default();
    let train_trace = benign_trace(200, 8.0, &mut rng);
    let train = extract_flows(&train_trace, &cfg);
    let teacher = OracleTeacher(|x: &[f32]| x[10] < 0.0008 || x[2] > 1200.0);
    let ig = IGuardConfig { n_trees: 5, subsample: 64, k_augment: 32, ..Default::default() };
    let mut forest = IGuardForest::fit(&train.features, &teacher, &ig, &mut rng);
    forest.distill(&train.features, &teacher, ig.k_augment, &mut rng);
    let rules = RuleSet::from_iguard(&forest, 400_000).expect("golden FL budget");

    let mut seen = std::collections::HashSet::new();
    let mut pl = iguard_runtime::Dataset::default();
    for p in &train_trace.packets {
        if seen.insert(p.five.canonical()) {
            pl.push_row(&packet_level_features(p));
        }
    }
    let early = EarlyModel::train(
        &pl,
        &IsolationForestConfig { n_trees: 10, subsample: 64, contamination: 0.05 },
        400_000,
        &mut rng,
    )
    .expect("golden PL rules");

    let benign = benign_trace(100, 6.0, &mut rng);
    let flood = Attack::UdpDdos.trace(40, 6.0, &mut rng);
    let trace = Trace::merge(vec![benign, flood]);
    let mut pipeline = Pipeline::new(
        PipelineConfig {
            flow_table: FlowTableConfig { pkt_threshold: 4, ..Default::default() },
            ..Default::default()
        },
        rules,
        early.rules,
    );
    let mut controller = Controller::new(ControllerConfig::default());
    let r = replay(&trace, &mut pipeline, &mut controller, &ReplayConfig::default());
    if (r.tp, r.fp, r.tn, r.fn_) != GOLDEN_CONFUSION {
        eprintln!(
            "bench_report: PR-2 golden confusion matrix drifted on the exact path: \
             ({}, {}, {}, {}) != {GOLDEN_CONFUSION:?}",
            r.tp, r.fp, r.tn, r.fn_
        );
        std::process::exit(1);
    }
    (r.packets, GOLDEN_CONFUSION)
}

/// Rendered sections of `BENCH_PR9.json`.
struct OverloadSweepDoc {
    scenarios: String,
    recovery: String,
    admission: String,
    golden: String,
}

/// The PR-9 tentpole sweep. For each canon scenario: replay the storm
/// workload across the full shard × worker grid and pin every point's
/// fingerprint (confusion, digests, blacklist, mitigation log, overload
/// accounting) to the 1×1 run; demand observable degraded-mode entry
/// *and* exit (with full recovery by end of trace) on the churn storms;
/// bound the benign-FP inflation of the shedding response against a
/// shedding-disabled twin. Then: the storm-worn pulse-wave pipeline must
/// reconverge to a fresh pipeline's confusion matrix on a follow-on
/// segment, the sketch-admission seam must demonstrably tighten under
/// pressure (and only under pressure), and the PR-2 golden matrix must
/// be untouched on the exact path.
fn run_overload_sweep(seed: u64, fl_rules: &RuleSet, pl_rules: &RuleSet) -> OverloadSweepDoc {
    let mut scenario_sections = Vec::new();
    let mut worn_pulse: Option<(ShardedPipeline, u64)> = None;

    for sc in ALL_SCENARIOS {
        eprintln!("bench_report: overload scenario {}", sc.name());
        let (trace, storm_end) = overload_scenario_trace(sc, seed);
        let malicious_packets = trace.labels.iter().filter(|&&l| l).count() as u64;

        // Grid determinism gate: 1/2/8 shards × 1/2/8 workers, every
        // fingerprint byte-identical to the 1×1 point.
        let (base, base_sp) = run_overload_case(&trace, fl_rules, pl_rules, 1, 1);
        let mut grid_points = 1u64;
        for shards in OVERLOAD_GRID {
            for workers in OVERLOAD_GRID {
                if (shards, workers) == (1, 1) {
                    continue;
                }
                let (got, _) = run_overload_case(&trace, fl_rules, pl_rules, shards, workers);
                if got != base {
                    eprintln!(
                        "bench_report: {} fingerprint diverged at {shards} shards / {workers} workers",
                        sc.name()
                    );
                    std::process::exit(1);
                }
                grid_points += 1;
            }
        }

        // Hysteresis observability gate, on the scenarios engineered to
        // saturate the table: the run must enter degraded mode, shed
        // benign digests while degraded, exit on the calm tail, and end
        // with every shard recovered.
        let storm_scenario = matches!(sc, Scenario::StateExhaustion | Scenario::PulseWave);
        if storm_scenario {
            let o = &base.overload;
            if o.degraded_entries == 0 || o.degraded_exits == 0 || o.degraded_batches == 0 {
                eprintln!(
                    "bench_report: {} never cycled degraded mode (entries {}, exits {}, batches {})",
                    sc.name(),
                    o.degraded_entries,
                    o.degraded_exits,
                    o.degraded_batches
                );
                std::process::exit(1);
            }
            if o.shed_benign == 0 {
                eprintln!("bench_report: {} shed no benign digests while degraded", sc.name());
                std::process::exit(1);
            }
            if o.degraded_shards != 0 {
                eprintln!(
                    "bench_report: {} ended with {} shards still degraded",
                    sc.name(),
                    o.degraded_shards
                );
                std::process::exit(1);
            }
        }

        // Bounded-FP gate: shedding benign digests defers ClearFlow
        // housekeeping but never flips a verdict, so the degraded run's
        // benign-FP count must stay within a small slack of the
        // shedding-disabled twin (slot-lifetime shifts move collision
        // timing, hence the slack rather than exact equality).
        let baseline = run_overload_baseline(&trace, fl_rules, pl_rules);
        let fp_cap = baseline.confusion.1 + baseline.confusion.1 / 20 + 8;
        if base.confusion.1 > fp_cap {
            eprintln!(
                "bench_report: {} inflated benign FPs while degraded ({} > cap {fp_cap}, baseline {})",
                sc.name(),
                base.confusion.1,
                baseline.confusion.1
            );
            std::process::exit(1);
        }
        if base.packets != baseline.packets {
            eprintln!("bench_report: {} packet population not conserved", sc.name());
            std::process::exit(1);
        }

        let (tp, fp, tn, fn_) = base.confusion;
        let detection_rate = tp as f64 / (tp + fn_).max(1) as f64;
        let benign_fp_rate = fp as f64 / (fp + tn).max(1) as f64;
        let degraded_residency = base.overload.degraded_batches as f64
            / base.packets.div_ceil(OVERLOAD_BATCH as u64).max(1) as f64;

        let mut fp_base_json = json::Object::new();
        fp_base_json
            .u64("fp", baseline.confusion.1)
            .u64("tp", baseline.confusion.0)
            .u64("digests", baseline.digests)
            .u64("fp_cap", fp_cap);

        let mut sj = json::Object::new();
        sj.str("scenario", sc.name())
            .str("description", sc.description())
            .u64("packets", base.packets)
            .u64("malicious_packets", malicious_packets)
            .u64("storm_end_ns", storm_end)
            .u64("tp", tp)
            .u64("fp", fp)
            .u64("tn", tn)
            .u64("fn", fn_)
            .f64("detection_rate", detection_rate)
            .f64("benign_fp_rate", benign_fp_rate)
            .u64("digests", base.digests)
            .u64("blacklist_len", base.blacklist.len() as u64)
            .u64("mitigated_flows", base.records.len() as u64)
            .u64("unmitigated_flows", base.unmitigated)
            .f64("degraded_residency", degraded_residency)
            .u64("grid_points", grid_points)
            .bool("grid_byte_identical", true)
            .bool("fp_inflation_bounded", true)
            .bool("degraded_cycle_observed", storm_scenario)
            .raw("ttm_packets", cdf_json(&base.ttm_packets, 3))
            .raw("ttm_ticks", cdf_json(&base.ttm_ticks, 3))
            .raw("overload", overload_stats_json(&base.overload, 3))
            .raw("shedding_disabled_baseline", fp_base_json.render(3));
        scenario_sections.push(sj.render(2));

        if let Scenario::PulseWave = sc {
            let tail_end = trace.packets.last().map_or(storm_end, |p| p.ts_ns);
            worn_pulse = Some((base_sp, tail_end));
        }
    }

    // --- Recovery gate: the storm-worn pulse-wave pipeline, on a
    // follow-on segment past the idle timeout (disjoint IP pools, fresh
    // controller), must produce the exact confusion matrix of a fresh
    // pipeline — no stale storm state may leak into reborn flows.
    eprintln!("bench_report: overload recovery gate (storm-worn vs fresh pipeline)");
    let (mut worn, worn_end) = worn_pulse.expect("pulse-wave scenario ran");
    let recovery = {
        let mut rng = Rng::seed_from_u64(seed ^ 0x4EC0_FE4);
        let segment = Trace::merge(vec![
            benign_trace(100, 6.0, &mut rng),
            Attack::UdpDdos.trace(40, 6.0, &mut rng),
        ]);
        shift_trace(&segment, worn_end + 2_500_000_000)
    };
    let rcfg = ReplayConfig::default().with_batch_size(OVERLOAD_BATCH);
    let run_recovery = |dp: &mut dyn DataPlane| -> ReplayReport {
        let mut controller = Controller::new(ControllerConfig::default());
        iguard_runtime::par::with_workers(1, || replay(&recovery, dp, &mut controller, &rcfg))
    };
    let worn_report = run_recovery(&mut worn);
    let fresh_cfg = ShardedPipelineConfig::from(overload_pipe_cfg()).with_shards(1);
    let mut fresh = ShardedPipeline::new(fresh_cfg, fl_rules.clone(), pl_rules.clone());
    let fresh_report = run_recovery(&mut fresh);
    let worn_c = (worn_report.tp, worn_report.fp, worn_report.tn, worn_report.fn_);
    let fresh_c = (fresh_report.tp, fresh_report.fp, fresh_report.tn, fresh_report.fn_);
    if worn_c != fresh_c {
        eprintln!(
            "bench_report: storm-worn pipeline did not reconverge (worn {worn_c:?}, fresh {fresh_c:?})"
        );
        std::process::exit(1);
    }
    let mut recovery_json = json::Object::new();
    recovery_json
        .str("scenario", "pulse_wave")
        .u64("segment_packets", worn_report.packets)
        .u64("tp", worn_c.0)
        .u64("fp", worn_c.1)
        .u64("tn", worn_c.2)
        .u64("fn", worn_c.3)
        .u64("worn_digests", worn_report.digests)
        .u64("fresh_digests", fresh_report.digests)
        .bool("confusion_matches_fresh", true);

    // --- Admission gate: under storm pressure the sketch-admission seam
    // must demand more repeat evidence (tightened rejections observable),
    // and on calm traffic it must never tighten. The storm here is a
    // slowloris-shape hold: long-lived flows that stay untracked once
    // the table fills with live residents collide on nearly *every*
    // packet, driving window churn deep past the degrade threshold —
    // whereas a 1-3-packet churn flood absorbs every flow's first packet
    // in the sketch (no churn contribution) and structurally caps churn
    // near 500 per-mille, below the enter threshold. The sketched
    // backend is a single unsharded table, so it gets its own small
    // slot count (64 slots × 2 tables = 128 flows) against a 1200-flow
    // hold; the calm control is benign traffic sized *within* that
    // capacity.
    eprintln!("bench_report: overload admission gate (sketch seam under pressure)");
    let storm_trace = Scenario::Slowloris.trace(1_200, 8.0, &mut Rng::seed_from_u64(seed ^ 0x51C0));
    let calm_trace = benign_trace(30, 8.0, &mut Rng::seed_from_u64(seed ^ 0xCA1));
    let probe = |trace: &Trace| -> u64 {
        let pipe = PipelineConfig::default().with_flow_table(
            FlowTableConfig::default().with_pkt_threshold(4).with_slots_per_table(64),
        );
        let cfg = SketchedPipelineConfig::default().with_pipeline(pipe).with_promote_threshold(2);
        let mut dp = SketchedPipeline::new(cfg, fl_rules.clone(), pl_rules.clone());
        let mut controller = Controller::new(ControllerConfig::default());
        let rcfg = ReplayConfig::default().with_batch_size(OVERLOAD_BATCH);
        let _ =
            iguard_runtime::par::with_workers(1, || replay(trace, &mut dp, &mut controller, &rcfg));
        dp.overload_stats().admission_tightened
    };
    let storm_tightened = probe(&storm_trace);
    let calm_tightened = probe(&calm_trace);
    if storm_tightened == 0 || calm_tightened != 0 {
        eprintln!(
            "bench_report: pressure-adaptive admission gate failed \
             (storm tightened {storm_tightened}, calm tightened {calm_tightened})"
        );
        std::process::exit(1);
    }
    let mut admission_json = json::Object::new();
    admission_json
        .u64("promote_threshold", 2)
        .u64("storm_tightened", storm_tightened)
        .u64("calm_tightened", calm_tightened)
        .bool("tightens_only_under_pressure", true);

    // --- Golden gate: the exact path, untouched.
    eprintln!("bench_report: overload golden gate (PR-2 exact path)");
    let (golden_packets, golden) = run_golden_exact_gate();
    let mut golden_json = json::Object::new();
    golden_json
        .u64("packets", golden_packets)
        .u64("tp", golden.0)
        .u64("fp", golden.1)
        .u64("tn", golden.2)
        .u64("fn", golden.3)
        .bool("unchanged", true);

    OverloadSweepDoc {
        scenarios: json::array(&scenario_sections, 1),
        recovery: recovery_json.render(1),
        admission: admission_json.render(1),
        golden: golden_json.render(1),
    }
}

/// Intermediate phase boundaries for the PR-10 sweep, against the
/// overload canon's packet threshold of 4. Boundary 2 is mandatory for
/// the state-exhaustion scenario: its probe flows send 1–3 packets, so
/// any later boundary (or the single-shot threshold) never sees them.
const PHASE_BOUNDARIES: [u64; 2] = [2, 3];

/// The overload canon flow table plus the phase schedule.
fn phase_pipe_cfg() -> PipelineConfig {
    PipelineConfig::default().with_flow_table(
        FlowTableConfig::default()
            .with_pkt_threshold(4)
            .with_slots_per_table(OVERLOAD_SLOTS)
            .with_phases(PhaseSchedule::new(&PHASE_BOUNDARIES)),
    )
}

/// One phase-enabled scenario replay at a given shard/worker point. The
/// phase schedule is in the flow-table config; `phase_rules` (one
/// whitelist per boundary, possibly empty = phases disabled in all but
/// the boundary bookkeeping) install through the hitless epoch flip
/// before the first packet.
fn run_phase_case(
    trace: &Trace,
    fl_rules: &RuleSet,
    pl_rules: &RuleSet,
    phase_rules: &[RuleSet],
    shards: usize,
    workers: usize,
) -> OverloadRun {
    iguard_runtime::par::with_workers(workers, || {
        let cfg = ShardedPipelineConfig::from(phase_pipe_cfg()).with_shards(shards);
        let mut sp = ShardedPipeline::new(cfg, fl_rules.clone(), pl_rules.clone());
        if !phase_rules.is_empty() {
            sp.set_phase_rulesets(phase_rules);
        }
        let mut controller = Controller::new(ControllerConfig::default());
        let mut log = MitigationLog::default();
        let rcfg = ReplayConfig::default().with_batch_size(OVERLOAD_BATCH);
        let report = replay_chaos_traced(
            trace,
            &mut sp,
            &mut controller,
            &rcfg,
            &ChaosConfig::default(),
            Some(&mut log),
        );
        OverloadRun {
            confusion: (report.tp, report.fp, report.tn, report.fn_),
            packets: report.packets,
            dropped: report.dropped,
            digests: report.digests,
            blacklist: sp.blacklist_contents(),
            unmitigated: log.unmitigated() as u64,
            ttm_packets: log.ttm_packets_sorted(),
            ttm_ticks: log.ttm_ticks_sorted(),
            records: log.records,
            overload: sp.overload_stats(),
        }
    })
}

/// Trains the per-boundary phase whitelists: one guided forest per
/// boundary on flow features truncated to that boundary's packet prefix
/// (later phases warm-started from the previous phase's forest), under a
/// prefix-shape oracle teacher — fast, small packets are the storm
/// signature at two packets; every benign profile in the canon either
/// paces slower or sends larger packets.
fn train_phase_rulesets(seed: u64) -> (Vec<RuleSet>, usize, Vec<u64>) {
    let mut rng = Rng::seed_from_u64(seed ^ 0x0F1A_5E10);
    // The training mix must straddle the teacher's boundary: a guided
    // forest only learns splits its training envelope can express, so
    // benign background alone (all on one side) would compile an
    // all-benign whitelist that never convicts.
    let mixed = Trace::merge(vec![
        benign_trace(150, 8.0, &mut rng),
        Scenario::StateExhaustion.trace(600, 8.0, &mut rng),
        Scenario::PulseWave.trace(300, 8.0, &mut rng),
        Scenario::Slowloris.trace(80, 8.0, &mut rng),
        Scenario::C2Beacon.trace(60, 8.0, &mut rng),
    ]);
    let teacher = OracleTeacher(|x: &[f32]| x[7] < 0.008 && x[6] <= 130.0);
    let datasets: Vec<iguard_runtime::Dataset> = PHASE_BOUNDARIES
        .iter()
        .map(|&b| {
            let cfg = ExtractConfig { pkt_threshold: b, ..Default::default() };
            extract_flows(&mixed, &cfg).features
        })
        .collect();
    let cfg = PhaseTrainConfig {
        forest: IGuardConfig { n_trees: 7, subsample: 64, k_augment: 64, ..Default::default() },
        // Super-majority certainty: early convictions are cheap to get
        // wrong (a wrongly blacklisted benign flow stays dropped), so
        // demand 6-of-7 trees rather than a plain majority.
        certainty: 0.7,
        max_regions: 600_000,
        warm_start: true,
    };
    let models = train_phases(&datasets, &teacher, &cfg, &mut rng).expect("phase training data");
    let lens = models.rulesets.iter().map(|r| r.len() as u64).collect();
    (models.rulesets, models.warm_started, lens)
}

/// Median of a sorted sample set (0 when empty), matching `cdf_json`'s
/// p50.
fn sorted_p50(v: &[u64]) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v[((v.len() - 1) as f64 * 0.5).round() as usize]
}

/// Rendered sections of `BENCH_PR10.json`.
struct PhaseSweepDoc {
    training: String,
    scenarios: String,
    golden: String,
}

/// The PR-10 tentpole sweep. Per canon scenario, three runs on the PR-9
/// storm workload: the single-shot baseline (no phase schedule), a
/// phases-configured-but-no-rulesets run (must fingerprint-match the
/// baseline exactly — disabling phases recovers single-shot semantics),
/// and the phase-enabled run, grid-gated byte-identical across
/// 1/2/8 shards × 1/2/8 workers. The phase-enabled run's
/// detection-latency CDF (packets of exposure before the blacklist
/// install, split by deciding phase) is scored against the baseline:
/// pulse-wave median exposure must strictly improve, and
/// state-exhaustion — unmitigatable single-shot, its probes die before
/// the threshold — must show nonzero mitigation.
fn run_phase_sweep(seed: u64, fl_rules: &RuleSet, pl_rules: &RuleSet) -> PhaseSweepDoc {
    eprintln!("bench_report: phase training ({:?} boundaries)", PHASE_BOUNDARIES);
    let (phase_rules, warm_started, rule_lens) = train_phase_rulesets(seed);

    let mut scenario_sections = Vec::new();
    for sc in ALL_SCENARIOS {
        eprintln!("bench_report: phase scenario {}", sc.name());
        let (trace, _) = overload_scenario_trace(sc, seed);

        // Single-shot baseline: the PR-9 configuration, no phase schedule.
        let (single, _) = run_overload_case(&trace, fl_rules, pl_rules, 1, 1);

        // Phases-disabled gate: a schedule with no installed rulesets
        // must escalate every boundary and reproduce the single-shot
        // fingerprint byte-for-byte.
        let disabled = run_phase_case(&trace, fl_rules, pl_rules, &[], 1, 1);
        if disabled != single {
            eprintln!(
                "bench_report: {} phases-disabled run diverged from the single-shot baseline",
                sc.name()
            );
            std::process::exit(1);
        }

        // Phase-enabled grid: every point byte-identical to 1×1.
        let base = run_phase_case(&trace, fl_rules, pl_rules, &phase_rules, 1, 1);
        let mut grid_points = 1u64;
        for shards in OVERLOAD_GRID {
            for workers in OVERLOAD_GRID {
                if (shards, workers) == (1, 1) {
                    continue;
                }
                let got = run_phase_case(&trace, fl_rules, pl_rules, &phase_rules, shards, workers);
                if got != base {
                    eprintln!(
                        "bench_report: {} phase fingerprint diverged at {shards} shards / {workers} workers",
                        sc.name()
                    );
                    std::process::exit(1);
                }
                grid_points += 1;
            }
        }

        // Detection-latency gates against the single-shot baseline.
        let base_p50 = sorted_p50(&base.ttm_packets);
        let single_p50 = sorted_p50(&single.ttm_packets);
        match sc {
            Scenario::PulseWave => {
                if base.records.is_empty() || base_p50 >= single_p50 {
                    eprintln!(
                        "bench_report: pulse-wave median exposure did not improve \
                         (phased p50 {base_p50} vs single-shot p50 {single_p50})"
                    );
                    std::process::exit(1);
                }
            }
            Scenario::StateExhaustion => {
                if base.records.is_empty() {
                    eprintln!(
                        "bench_report: state-exhaustion mitigated no flows with phases enabled \
                         (single-shot mitigated {}, unmitigated {})",
                        single.records.len(),
                        single.unmitigated
                    );
                    std::process::exit(1);
                }
            }
            _ => {}
        }

        // Per-deciding-phase exposure CDFs, FINAL_PHASE (single-shot
        // verdicts within the phased run) last.
        let mut by_phase: std::collections::BTreeMap<u8, Vec<u64>> =
            std::collections::BTreeMap::new();
        for r in &base.records {
            by_phase.entry(r.deciding_phase).or_default().push(r.packets_before_install);
        }
        let mut phase_cdfs = Vec::new();
        for (ph, mut v) in by_phase {
            v.sort_unstable();
            let mut o = json::Object::new();
            if ph == iguard_switch::pipeline::FINAL_PHASE {
                o.str("phase", "final");
            } else {
                o.u64("phase", ph as u64).u64("boundary_packets", PHASE_BOUNDARIES[ph as usize]);
            }
            o.raw("ttm_packets", cdf_json(&v, 4));
            phase_cdfs.push(o.render(3));
        }

        let (tp, fp, tn, fn_) = base.confusion;
        let mut single_json = json::Object::new();
        single_json
            .u64("tp", single.confusion.0)
            .u64("fp", single.confusion.1)
            .u64("tn", single.confusion.2)
            .u64("fn", single.confusion.3)
            .u64("mitigated_flows", single.records.len() as u64)
            .u64("unmitigated_flows", single.unmitigated)
            .raw("ttm_packets", cdf_json(&single.ttm_packets, 3));

        let mut sj = json::Object::new();
        sj.str("scenario", sc.name())
            .u64("packets", base.packets)
            .u64("tp", tp)
            .u64("fp", fp)
            .u64("tn", tn)
            .u64("fn", fn_)
            .u64("digests", base.digests)
            .u64("blacklist_len", base.blacklist.len() as u64)
            .u64("mitigated_flows", base.records.len() as u64)
            .u64("unmitigated_flows", base.unmitigated)
            .u64("grid_points", grid_points)
            .bool("grid_byte_identical", true)
            .bool("disabled_matches_single_shot", true)
            .raw("ttm_packets", cdf_json(&base.ttm_packets, 3))
            .raw("ttm_packets_by_phase", json::array(&phase_cdfs, 3))
            .raw("single_shot_baseline", single_json.render(3));
        scenario_sections.push(sj.render(2));
    }

    // Golden gate, phases disabled: the PR-2 exact-path deployment has no
    // phase schedule, so its confusion matrix must sit on the constant.
    eprintln!("bench_report: phase golden gate (PR-2 exact path, phases disabled)");
    let (golden_packets, golden) = run_golden_exact_gate();
    let mut golden_json = json::Object::new();
    golden_json
        .u64("packets", golden_packets)
        .u64("tp", golden.0)
        .u64("fp", golden.1)
        .u64("tn", golden.2)
        .u64("fn", golden.3)
        .bool("unchanged", true);

    let boundary_strs: Vec<String> = PHASE_BOUNDARIES.iter().map(|b| b.to_string()).collect();
    let rule_len_strs: Vec<String> = rule_lens.iter().map(|l| l.to_string()).collect();
    let mut training_json = json::Object::new();
    training_json
        .raw("boundaries", json::array(&boundary_strs, 1))
        .u64("pkt_threshold", 4)
        .u64("phases", phase_rules.len() as u64)
        .u64("warm_started", warm_started as u64)
        .raw("rules_per_phase", json::array(&rule_len_strs, 1));

    PhaseSweepDoc {
        training: training_json.render(1),
        scenarios: json::array(&scenario_sections, 1),
        golden: golden_json.render(1),
    }
}

fn main() {
    let args = parse_args();
    let iterations = if args.smoke { 1 } else { 3 };

    // Telemetry must be live regardless of the ambient env: the snapshot is
    // part of the report.
    iguard_telemetry::set_enabled(true);
    iguard_telemetry::registry::reset();

    let mut stages = [
        StageStat::new("fit"),
        StageStat::new("distill"),
        StageStat::new("rulegen_fl"),
        StageStat::new("rulegen_pl"),
        StageStat::new("tcam_compile"),
        StageStat::new("replay"),
    ];

    let mut last = None;
    for i in 0..iterations {
        eprintln!("bench_report: iteration {}/{iterations}", i + 1);
        last = Some(run_scenario(args.seed, &mut stages));
    }
    let run = last.expect("at least one iteration");

    eprintln!("bench_report: shard sweep (1/2/4/8 shards vs serial pipeline)");
    let sweep_iters = if args.smoke { 1 } else { 5 };
    let (base_min_ns, base_report, sweep) =
        run_shard_sweep(args.seed, sweep_iters, &run.fl_rules, &run.pl_rules);

    eprintln!("bench_report: chaos sweep (drop-rate curve + digest outage)");
    let chaos_points = run_chaos_sweep(args.seed, &run.fl_rules, &run.pl_rules);

    eprintln!("bench_report: rule-index sweep (linear vs indexed, 64/256/1024 rules)");
    let index_iters = if args.smoke { 3 } else { 9 };
    let index_points = run_rule_index_sweep(args.seed, index_iters);

    eprintln!("bench_report: replay-trace verdict parity (linear vs indexed vs sharded)");
    let (parity_rows, parity_wl) = run_replay_parity(args.seed, &run.fl_rules, &run.pl_rules);

    eprintln!("bench_report: SoA replay (columnar vs scalar pipeline, 1 worker)");
    // Interleaved scalar/columnar iterations with min-of-iters on both
    // sides: enough samples that one background-noise burst cannot sink
    // the gated ratio (each pair costs only a few ms).
    let soa_iters = if args.smoke { 7 } else { 9 };
    let soa = run_soa_replay(args.seed, soa_iters, &run.fl_rules, &run.pl_rules);

    eprintln!("bench_report: streaming sketch sweep (PR-7)");
    let (stream_cfg, stream_runs, alloc_probe) =
        run_streaming_sweep(args.seed, args.smoke, &run.fl_rules, &run.pl_rules);

    eprintln!("bench_report: ruleset swap sweep (PR-8 drift adaptation loop)");
    let swap_doc = run_ruleset_swap_sweep(args.seed, &run.pl_rules);

    eprintln!("bench_report: overload-resilience sweep (PR-9 adversarial scenario canon)");
    let overload_doc = run_overload_sweep(args.seed, &run.fl_rules, &run.pl_rules);

    eprintln!("bench_report: phase-aware classification sweep (PR-10 early verdicts)");
    let phase_doc = run_phase_sweep(args.seed, &run.fl_rules, &run.pl_rules);

    let snapshot = iguard_telemetry::registry::snapshot().expect("telemetry enabled");
    if let Err(e) = snapshot.verify() {
        eprintln!("bench_report: telemetry invariant violation: {e}");
        std::process::exit(1);
    }

    let usage = ResourceModel::for_deployment(
        &run.fl_tcam,
        &run.pl_tcam,
        run.flow_table,
        ControllerConfig::default().blacklist_capacity,
    )
    .usage();

    let mut stages_json = json::Object::new();
    for s in &stages {
        stages_json.raw(s.name, s.to_json(2));
    }

    let mut rules_json = json::Object::new();
    rules_json
        .u64("fl_rules", run.fl_rules.len() as u64)
        .u64("fl_regions", run.fl_rules.total_regions as u64)
        .u64("pl_rules", run.pl_rules.len() as u64)
        .u64("pl_regions", run.pl_rules.total_regions as u64);

    let mut tcam_json = json::Object::new();
    tcam_json
        .u64("fl_entries", run.fl_tcam.len() as u64)
        .u64("fl_encoded_key_bits", run.fl_tcam.encoded_key_bits() as u64)
        .u64("pl_entries", run.pl_tcam.len() as u64)
        .u64("pl_encoded_key_bits", run.pl_tcam.encoded_key_bits() as u64)
        .f64("tcam_util", usage.tcam)
        .f64("sram_util", usage.sram)
        .f64("salu_util", usage.salu)
        .f64("vliw_util", usage.vliw)
        .f64("rho", usage.rho());

    let ft = run.pipeline.flow_table_stats();
    let mut flow_json = json::Object::new();
    flow_json
        .u64("occupancy", ft.occupancy as u64)
        .u64("capacity", ft.capacity as u64)
        .f64("fill", ft.fill())
        .u64("collision_packets", ft.collision_packets);

    let paths = run.pipeline.counters();
    let mut paths_json = json::Object::new();
    paths_json
        .u64("blacklist", paths.blacklist)
        .u64("brown", paths.brown)
        .u64("blue", paths.blue)
        .u64("orange", paths.orange)
        .u64("purple", paths.purple)
        .u64("green_loopback", paths.green_loopback);

    let r = run.report;
    let mut replay_json = json::Object::new();
    replay_json
        .u64("packets", r.packets)
        .u64("dropped", r.dropped)
        .u64("tp", r.tp)
        .u64("fp", r.fp)
        .u64("tn", r.tn)
        .u64("fn", r.fn_)
        .u64("digests", r.digests)
        .f64("throughput_gbps", r.throughput_gbps)
        .f64("avg_latency_ns", r.avg_latency_ns)
        .u64("wl_lookups", r.wl_lookups)
        .u64("wl_hits", r.wl_hits)
        .u64("blacklist_len", run.pipeline.blacklist_len() as u64)
        .raw("paths", paths_json.render(2));

    let mut sweep_json = json::Object::new();
    {
        let mut baseline_json = json::Object::new();
        baseline_json
            .u64("min_ns", base_min_ns)
            .f64("mpps", base_report.packets as f64 / (base_min_ns as f64 / 1e9) / 1e6)
            .u64("tp", base_report.tp)
            .u64("fp", base_report.fp)
            .u64("tn", base_report.tn)
            .u64("fn", base_report.fn_)
            .u64("digests", base_report.digests);
        let single = sweep.iter().find(|p| p.shards == 1).expect("1-shard point");
        let mut points_json = Vec::new();
        for p in &sweep {
            let mut o = json::Object::new();
            o.u64("shards", p.shards as u64)
                .u64("min_ns", p.min_ns)
                .f64("mean_ns", p.mean_ns)
                .f64("mpps", p.mpps)
                .f64("imbalance_ratio", p.imbalance)
                .f64("speedup_vs_single_shard", single.min_ns as f64 / p.min_ns as f64)
                .u64("tp", p.report.tp)
                .u64("fp", p.report.fp)
                .u64("tn", p.report.tn)
                .u64("fn", p.report.fn_)
                .u64("digests", p.report.digests)
                .u64("blacklist_len", p.blacklist.len() as u64);
            points_json.push(o.render(3));
        }
        sweep_json
            .u64("iters", sweep_iters as u64)
            .u64("batch_size", SWEEP_BATCH as u64)
            // Speedup >1 is only physically possible when the host has
            // cores to spare; on a 1-CPU host the sweep still validates
            // determinism and abstraction overhead.
            .u64("host_cpus", std::thread::available_parallelism().map_or(1, |n| n.get()) as u64)
            .u64("trace_packets", base_report.packets)
            .f64("single_shard_overhead", single.min_ns as f64 / base_min_ns as f64)
            .bool("deterministic_across_shards", true)
            .raw("baseline_pipeline", baseline_json.render(2))
            .raw("shards", json::array(&points_json, 2));
    }

    let mut chaos_json = json::Object::new();
    {
        // The fault-free (rate 0.0) point anchors the blacklist delta:
        // how many flows a faulty run installed differently from the
        // clean run after convergence.
        let baseline: std::collections::HashSet<_> =
            chaos_points[0].blacklist.iter().copied().collect();
        let mut points_json = Vec::new();
        for p in &chaos_points {
            let here: std::collections::HashSet<_> = p.blacklist.iter().copied().collect();
            let delta = here.symmetric_difference(&baseline).count();
            let r = p.report;
            let mut o = json::Object::new();
            o.str("scenario", &p.label)
                .f64("drop_rate", p.drop_rate)
                .u64("tp", r.tp)
                .u64("fp", r.fp)
                .u64("tn", r.tn)
                .u64("fn", r.fn_)
                .u64("digests", r.digests)
                .u64("blacklist_len", p.blacklist.len() as u64)
                .u64("blacklist_delta_vs_baseline", delta as u64)
                .u64("chan_dropped", r.chan_dropped)
                .u64("chan_duplicated", r.chan_duplicated)
                .u64("chan_reordered", r.chan_reordered)
                .u64("chan_delayed", r.chan_delayed)
                .u64("dup_digests", r.dup_digests)
                .u64("action_failures", r.action_failures)
                .u64("retries", r.retries)
                .u64("retries_exhausted", r.retries_exhausted)
                .u64("shed", r.shed)
                .bool("degraded", r.degraded)
                .u64("recovery_packets", r.recovery_packets)
                .u64("flush_ticks", r.flush_ticks)
                .u64("resync_digests", r.resync_digests);
            points_json.push(o.render(3));
        }
        chaos_json
            .u64("batch_size", CHAOS_BATCH as u64)
            .u64("resync_interval_ticks", CHAOS_RESYNC)
            .u64("trace_packets", chaos_points[0].report.packets)
            .bool("deterministic_replay", true)
            .raw("scenarios", json::array(&points_json, 2));
    }

    let mut index_json = json::Object::new();
    {
        let mut points_json = Vec::new();
        for p in &index_points {
            let mut o = json::Object::new();
            o.u64("n_rules", p.n_rules as u64)
                .u64("tcam_entries", p.entries as u64)
                .u64("tcam_skipped_empty", p.skipped_empty)
                .u64("index_total_cuts", p.total_cuts as u64)
                .f64("hit_rate", p.hit_rate)
                .u64("float_linear_ns", p.float_linear_ns)
                .u64("float_indexed_ns", p.float_indexed_ns)
                .f64("float_speedup", p.float_linear_ns as f64 / p.float_indexed_ns.max(1) as f64)
                .u64("tcam_linear_ns", p.tcam_linear_ns)
                .u64("tcam_indexed_ns", p.tcam_indexed_ns)
                .f64("tcam_speedup", p.tcam_linear_ns as f64 / p.tcam_indexed_ns.max(1) as f64);
            points_json.push(o.render(2));
        }
        index_json
            .u64("probes", INDEX_PROBES as u64)
            .u64("dims", INDEX_DIMS as u64)
            .u64("iters", index_iters as u64)
            // Hard-gated above: the run aborts before writing the report
            // if any indexed verdict diverges from its linear twin.
            .bool("verdicts_identical", true)
            .f64("speedup_gate", 2.0)
            .u64("speedup_gate_min_rules", 256)
            .raw("points", json::array(&points_json, 1));
    }

    let mut parity_json = json::Object::new();
    parity_json
        .u64("rows", parity_rows as u64)
        // Hard-gated in run_replay_parity: serial linear scan, serial
        // indexed batch and 8-shard indexed batch agreed byte-for-byte.
        .bool("verdicts_identical", true)
        .u64("wl_lookups", parity_wl.lookups)
        .u64("wl_hits", parity_wl.hits);

    let mut soa_json = json::Object::new();
    soa_json
        .u64("trace_packets", soa.packets)
        .u64("batch_size", SOA_BATCH as u64)
        .u64("iters", soa_iters as u64)
        .u64("workers", 1)
        .u64("scalar_min_ns", soa.scalar_min_ns)
        .u64("soa_min_ns", soa.soa_min_ns)
        .f64("scalar_mpps", soa.scalar_mpps)
        .f64("soa_mpps", soa.soa_mpps)
        .f64("speedup", soa.speedup)
        .f64("speedup_gate", 2.0)
        // Hard-gated in run_soa_replay: the columnar path's verdicts,
        // digests, path counters, and whitelist counters matched the
        // scalar oracle on every timed run, and the ≥2× throughput gate
        // held — or the run aborted before writing this file.
        .bool("verdicts_identical", true);

    let mut root = json::Object::new();
    root.str("schema", "iguard-bench-pr6")
        .u64("version", 1)
        .u64("seed", args.seed)
        .bool("smoke", args.smoke)
        .u64("iterations", iterations as u64)
        .u64("workers", iguard_runtime::par::current_workers() as u64)
        .raw("stages", stages_json.render(1))
        .raw("rules", rules_json.render(1))
        .raw("tcam", tcam_json.render(1))
        .raw("flow_table", flow_json.render(1))
        .raw("replay", replay_json.render(1))
        .raw("shard_sweep", sweep_json.render(1))
        .raw("chaos_sweep", chaos_json.render(1))
        .raw("rule_index", index_json.render(1))
        .raw("replay_parity", parity_json.render(1))
        .raw("soa_replay", soa_json.render(1))
        .raw("telemetry", snapshot.to_json_at(1));
    let doc = root.render(0) + "\n";

    std::fs::write(&args.out, &doc).expect("write report");
    eprintln!("bench_report: wrote {}", args.out);

    // --- BENCH_PR7.json: the streaming sketch sweep as its own document.
    let exact = &stream_runs[0];
    let mut runs_json = Vec::new();
    for r in &stream_runs {
        let secs = r.wall_ns as f64 / 1e9;
        let mut o = json::Object::new();
        o.str("label", &r.label)
            .u64("wall_ns", r.wall_ns)
            .u64("packets", r.report.packets)
            .f64("pps", r.report.packets as f64 / secs.max(1e-9))
            .u64("tp", r.report.tp)
            .u64("fp", r.report.fp)
            .u64("tn", r.report.tn)
            .u64("fn", r.report.fn_)
            .u64("digests", r.report.digests)
            .u64("blacklist_len", r.blacklist.len() as u64)
            .raw("fp_delta_vs_exact", (r.report.fp as i64 - exact.report.fp as i64).to_string())
            .raw("fn_delta_vs_exact", (r.report.fn_ as i64 - exact.report.fn_ as i64).to_string());
        if let Some(s) = r.stats {
            let resident = s.resident_bytes + s.sketch_bytes;
            let mut sj = json::Object::new();
            sj.u64("tracked", s.tracked as u64)
                .u64("max_tracked", s.max_tracked.min(u64::MAX as usize) as u64)
                .u64("resident_bytes", s.resident_bytes as u64)
                .u64("sketch_bytes", s.sketch_bytes as u64)
                .f64("bytes_per_tracked_flow", resident as f64 / (s.tracked.max(1)) as f64)
                .u64("promoted", s.promoted)
                .u64("absorbed", s.absorbed)
                .u64("evicted", s.evicted);
            if let Some(b) = s.budget_bytes {
                sj.u64("budget_bytes", b as u64);
            }
            o.raw("sketch", sj.render(2));
        }
        runs_json.push(o.render(2));
    }

    let mut alloc_json = json::Object::new();
    alloc_json
        .u64("base_flows", alloc_probe.base_flows)
        .u64("marginal_batches", alloc_probe.marginal_batches)
        .u64("marginal_allocs", alloc_probe.marginal_allocs)
        .f64(
            "allocs_per_batch",
            alloc_probe.marginal_allocs as f64 / alloc_probe.marginal_batches.max(1) as f64,
        )
        // Hard-gated in run_streaming_sweep: the run aborts before writing
        // this file if the streaming path allocates once per batch.
        .bool("steady_state_allocation_free", true);

    let mut root7 = json::Object::new();
    root7
        .str("schema", "iguard-bench-pr7")
        .u64("version", 1)
        .u64("seed", args.seed)
        .bool("smoke", args.smoke)
        .u64("flows", stream_cfg.total_flows)
        .u64("users", stream_cfg.users as u64)
        .u64("batch_size", STREAM_BATCH as u64)
        // Hard-gated in run_streaming_sweep: exact-mode sketched replay
        // matched the exact pipeline's confusion matrix, digests, packet
        // count and blacklist, and every budgeted point held its budget.
        .bool("exact_mode_parity", true)
        .bool("budgets_respected", true)
        .raw("runs", json::array(&runs_json, 1))
        .raw("alloc_probe", alloc_json.render(1));
    let doc7 = root7.render(0) + "\n";
    std::fs::write(&args.out_pr7, &doc7).expect("write PR7 report");
    eprintln!("bench_report: wrote {}", args.out_pr7);

    // --- BENCH_PR8.json: the drift-adaptation / ruleset-swap loop.
    let mut root8 = json::Object::new();
    root8
        .str("schema", "iguard-bench-pr8")
        .u64("version", 1)
        .u64("seed", args.seed)
        .bool("smoke", args.smoke)
        // Every gate in run_ruleset_swap_sweep is hard: the run aborts
        // before writing this file if the drift trigger misfires, a diff
        // out-churns a full reinstall, any packet sees a blended ruleset
        // mid-swap, a faulted swap fails to converge on the fault-free
        // fingerprint, or any shard/worker combination diverges.
        .bool("gates_enforced", true)
        .raw("drift_loop", swap_doc.drift_loop)
        .raw("rule_diff", swap_doc.rule_diff)
        .raw("swap_window", swap_doc.swap_window)
        .raw("fault_convergence", swap_doc.fault_convergence)
        .raw("determinism", swap_doc.determinism)
        .raw("versioning", swap_doc.versioning);
    let doc8 = root8.render(0) + "\n";
    std::fs::write(&args.out_pr8, &doc8).expect("write PR8 report");
    eprintln!("bench_report: wrote {}", args.out_pr8);

    // --- BENCH_PR9.json: the overload-resilience scorecard.
    let mut ft9_json = json::Object::new();
    ft9_json
        .u64("slots_per_table", OVERLOAD_SLOTS as u64)
        .u64("pkt_threshold", 4)
        .u64("batch_size", OVERLOAD_BATCH as u64);
    let ocfg = OverloadConfig::default();
    let mut ocfg_json = json::Object::new();
    ocfg_json
        .u64("digest_buffer_cap", ocfg.digest_buffer_cap as u64)
        .u64("degrade_enter_milli", ocfg.degrade_enter_milli as u64)
        .u64("degrade_exit_milli", ocfg.degrade_exit_milli as u64)
        .u64("degrade_calm_batches", ocfg.degrade_calm_batches as u64);
    let mut root9 = json::Object::new();
    root9
        .str("schema", "iguard-bench-pr9")
        .u64("version", 1)
        .u64("seed", args.seed)
        .bool("smoke", args.smoke)
        // Every gate in run_overload_sweep is hard: the run aborts before
        // writing this file if any shard/worker grid point's fingerprint
        // diverges, a churn storm fails to cycle degraded mode (enter,
        // shed, exit, full recovery), benign FPs inflate past the
        // shedding-disabled twin's cap, the storm-worn pipeline fails to
        // reconverge with a fresh one, the sketch-admission seam fails to
        // tighten under pressure (or tightens while calm), or the PR-2
        // golden matrix moves on the exact path.
        .bool("gates_enforced", true)
        .raw("flow_table", ft9_json.render(1))
        .raw("overload_config", ocfg_json.render(1))
        .raw("scenarios", overload_doc.scenarios)
        .raw("recovery", overload_doc.recovery)
        .raw("admission", overload_doc.admission)
        .raw("golden_exact_path", overload_doc.golden);
    let doc9 = root9.render(0) + "\n";
    std::fs::write(&args.out_pr9, &doc9).expect("write PR9 report");
    eprintln!("bench_report: wrote {}", args.out_pr9);

    // --- BENCH_PR10.json: the phase-aware detection-latency scorecard.
    let mut root10 = json::Object::new();
    root10
        .str("schema", "iguard-bench-pr10")
        .u64("version", 1)
        .u64("seed", args.seed)
        .bool("smoke", args.smoke)
        // Every gate in run_phase_sweep is hard: the run aborts before
        // writing this file if a phases-disabled run diverges from the
        // single-shot baseline, any shard/worker grid point's fingerprint
        // diverges with phases enabled, pulse-wave median exposure fails
        // to strictly improve on single-shot, state-exhaustion mitigates
        // nothing, or the PR-2 golden matrix moves with phases disabled.
        .bool("gates_enforced", true)
        .raw("phase_training", phase_doc.training)
        .raw("scenarios", phase_doc.scenarios)
        .raw("golden_exact_path", phase_doc.golden);
    let doc10 = root10.render(0) + "\n";
    std::fs::write(&args.out_pr10, &doc10).expect("write PR10 report");
    eprintln!("bench_report: wrote {}", args.out_pr10);
}
