//! Micro-benchmarks for every per-figure cost centre, on the in-repo
//! timing harness (`iguard_runtime::timing`, `harness = false`):
//!
//! * `training/*` — guided (iGuard) vs conventional (iForest) fitting and
//!   distillation (Figs. 5–9 training side, §3.2 complexity remark:
//!   guided training is random-forest-like, not iForest-like), plus the
//!   serial-vs-parallel scaling of the runtime worker pool.
//! * `inference/*` — forest vote vs compiled-rule match vs TCAM lookup
//!   (the data-plane story of §3.2.3).
//! * `rulegen/*` — whitelist compilation (§3.2.3).
//! * `pipeline/*` — per-packet cost of the Fig.-4 emulated pipeline, a
//!   budgeted sketched `process_batch`, the wire parser (App. B.1's latency side) and the blacklist probe under
//!   std's SipHash vs the keyed flow hasher.
//! * `features/*` — flow-state update + feature extraction (§3.3.1).
//! * `synth/*` — the packet source: `StreamingTrace` materialisation and
//!   a storm-shaped `Trace::merge`, each also reported in ns/pkt.

use std::collections::HashSet;

use iguard_runtime::hash::FlowSet;
use iguard_runtime::par::with_workers;
use iguard_runtime::rng::Rng;
use iguard_runtime::timing::{bench, group};
use iguard_runtime::Dataset;

use iguard_core::forest::{IGuardConfig, IGuardForest};
use iguard_core::rules::RuleSet;
use iguard_core::teacher::OracleTeacher;
use iguard_flow::features::switch_fl_features;
use iguard_flow::five_tuple::FiveTuple;
use iguard_flow::packet::Packet;
use iguard_flow::stats::FlowStats;
use iguard_flow::table::FlowShard;
use iguard_iforest::{IsolationForest, IsolationForestConfig};
use iguard_switch::controller::{Controller, ControllerConfig};
use iguard_switch::data_plane::DataPlane;
use iguard_switch::pipeline::{Pipeline, PipelineConfig};
use iguard_switch::sketched::{SketchEviction, SketchedPipeline, SketchedPipelineConfig};
use iguard_switch::tcam::{compile_ruleset, quantize_key_into, FieldSpec};
use iguard_synth::benign::benign_trace;
use iguard_synth::{Scenario, StreamingConfig, StreamingTrace, Trace};

fn uniform_data(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = Rng::seed_from_u64(seed);
    let mut d = Dataset::new(dim);
    let mut row = vec![0.0f32; dim];
    for _ in 0..n {
        for v in &mut row {
            *v = rng.gen_range(0.0..1.0);
        }
        d.push_row(&row);
    }
    d
}

fn training() {
    group("training");
    let data = uniform_data(512, 13, 1);
    let teacher = OracleTeacher(|x: &[f32]| x[0] > 0.7);
    {
        let cfg = IsolationForestConfig { n_trees: 50, subsample: 128, contamination: 0.1 };
        bench("iforest_fit_t50_psi128", || {
            let mut rng = Rng::seed_from_u64(2);
            IsolationForest::fit(&data, &cfg, &mut rng)
        });
    }
    let cfg = IGuardConfig { n_trees: 7, subsample: 64, k_augment: 32, ..Default::default() };
    bench("iguard_fit_t7_psi64", || {
        let mut rng = Rng::seed_from_u64(3);
        IGuardForest::fit(&data, &teacher, &cfg, &mut rng)
    });
    {
        let mut rng = Rng::seed_from_u64(4);
        let forest = IGuardForest::fit(&data, &teacher, &cfg, &mut rng);
        bench("iguard_distill", || {
            let mut f = forest.clone();
            let mut rng = Rng::seed_from_u64(5);
            f.distill(&data, &teacher, 32, &mut rng);
            f
        });
    }

    // Serial vs parallel scaling of guided training on the worker pool.
    // The larger forest gives each worker real work per tree.
    let wide_cfg =
        IGuardConfig { n_trees: 32, subsample: 128, k_augment: 64, ..Default::default() };
    let fit_with = |workers: usize| {
        with_workers(workers, || {
            let mut rng = Rng::seed_from_u64(6);
            IGuardForest::fit(&data, &teacher, &wide_cfg, &mut rng)
        })
    };
    let serial = bench("iguard_fit_t32 (1 worker)", || fit_with(1));
    let par4 = bench("iguard_fit_t32 (4 workers)", || fit_with(4));
    println!("   -> speedup at 4 workers: {:.2}x", serial.mean_ns / par4.mean_ns);
}

fn inference() {
    group("inference");
    let data = uniform_data(512, 13, 6);
    let teacher = OracleTeacher(|x: &[f32]| x[0] > 0.7);
    let mut rng = Rng::seed_from_u64(7);
    let cfg = IGuardConfig { n_trees: 7, subsample: 64, k_augment: 32, ..Default::default() };
    let mut forest = IGuardForest::fit(&data, &teacher, &cfg, &mut rng);
    forest.distill(&data, &teacher, 32, &mut rng);
    let rules = RuleSet::from_iguard(&forest, 400_000).unwrap();
    let specs: Vec<FieldSpec> = (0..13).map(|_| FieldSpec::new(16, 65_535.0)).collect();
    let tcam = compile_ruleset(&rules, &specs);
    let x = vec![0.4f32; 13];
    let mut key = Vec::new();
    quantize_key_into(&x, &specs, &mut key);

    bench("forest_vote", || forest.predict(std::hint::black_box(&x)));
    bench("ruleset_match", || rules.predict(std::hint::black_box(&x)));
    bench("tcam_lookup", || tcam.lookup(std::hint::black_box(&key)));
    let mut kbuf = Vec::new();
    bench("quantize_key_into", || {
        quantize_key_into(std::hint::black_box(&x), &specs, &mut kbuf);
        kbuf.len()
    });
}

fn rulegen() {
    group("rulegen");
    let data = uniform_data(512, 13, 8);
    let teacher = OracleTeacher(|x: &[f32]| x[0] > 0.7);
    let mut rng = Rng::seed_from_u64(9);
    let cfg = IGuardConfig { n_trees: 7, subsample: 64, k_augment: 32, ..Default::default() };
    let mut forest = IGuardForest::fit(&data, &teacher, &cfg, &mut rng);
    forest.distill(&data, &teacher, 32, &mut rng);
    bench("iguard_rules", || RuleSet::from_iguard(&forest, 400_000).unwrap());
    let iforest = IsolationForest::fit(
        &data,
        &IsolationForestConfig { n_trees: 5, subsample: 32, contamination: 0.1 },
        &mut rng,
    );
    let bounds = iguard_core::forest::feature_bounds(&data);
    bench("iforest_rules", || RuleSet::from_iforest(&iforest, &bounds, 400_000).unwrap());
}

fn pipeline() {
    group("pipeline");
    use iguard_core::rules::Hypercube;
    let accept_all = |dim: usize| RuleSet {
        bounds: vec![(0.0, 1.0); dim],
        whitelist: vec![Hypercube {
            lo: vec![f32::NEG_INFINITY; dim],
            hi: vec![f32::INFINITY; dim],
        }],
        total_regions: 1,
    };
    let mut rng = Rng::seed_from_u64(10);
    let trace = benign_trace(200, 5.0, &mut rng);
    {
        let mut p = Pipeline::new(PipelineConfig::default(), accept_all(13), accept_all(4));
        let mut c2 = Controller::new(ControllerConfig::default());
        let mut idx = 0usize;
        let mut digests = Vec::new();
        let mut actions = Vec::new();
        bench("per_packet_process", || {
            let pkt = &trace.packets[idx % trace.len()];
            idx += 1;
            let out = p.process(pkt);
            digests.clear();
            p.drain_seq_digests_into(&mut digests);
            c2.process_seq_digests_into(&digests, &mut actions);
            for &a in &actions {
                p.apply(a);
            }
            out
        });
    }
    {
        // The sketched layout under budget pressure, batched as the
        // streaming replay drives it: 2Q eviction, promote on the second
        // packet, and 64 exact slots for the trace's 200 flows, so every
        // batch mixes resident touches, sketch admission and evictions.
        let cfg = SketchedPipelineConfig::default()
            .with_budget_bytes(Some(64 * FlowShard::slot_bytes()))
            .with_promote_threshold(2)
            .with_eviction(SketchEviction::TwoQ);
        let mut p = SketchedPipeline::new(cfg, accept_all(13), accept_all(4));
        let batches: Vec<&[Packet]> = trace.packets.chunks(256).collect();
        let (mut b, mut out, mut digests) = (0usize, Vec::new(), Vec::new());
        bench("sketched_2q_process_batch_256", || {
            p.process_batch(batches[b % batches.len()], &mut out);
            b += 1;
            digests.clear();
            p.drain_seq_digests_into(&mut digests);
            out.len()
        });
    }
    let pkt = trace.packets[0];
    let bytes = pkt.to_bytes();
    bench("wire_parse_roundtrip", || Packet::from_bytes(0, std::hint::black_box(&bytes)).unwrap());

    // Blacklist probes of a 4,096-entry set under std's SipHash-1-3 vs the
    // keyed flow hasher: one iteration probes 8,192 keys, half installed,
    // so the harness's per-iteration clock reads do not swamp a probe.
    let keys: Vec<FiveTuple> = (0..8_192u32)
        .map(|i| FiveTuple::new(0x0A00_0000 + i, 0xC0A8_0001, 1024 + i as u16, 443, 6))
        .collect();
    let sip: HashSet<FiveTuple> = keys.iter().step_by(2).copied().collect();
    let keyed: FlowSet<FiveTuple> = keys.iter().step_by(2).copied().collect();
    bench("blacklist_8192_probes_siphash", || {
        keys.iter().filter(|k| sip.contains(std::hint::black_box(*k))).count()
    });
    bench("blacklist_8192_probes_flow_hasher", || {
        keys.iter().filter(|k| keyed.contains(std::hint::black_box(*k))).count()
    });
}

fn features() {
    group("features");
    let mut rng = Rng::seed_from_u64(11);
    let trace = benign_trace(50, 5.0, &mut rng);
    {
        let mut stats = FlowStats::from_first_packet(&trace.packets[0]);
        let mut idx = 1usize;
        bench("flow_stats_update", || {
            stats.update(&trace.packets[idx % trace.len()]);
            idx += 1;
        });
    }
    let mut stats = FlowStats::from_first_packet(&trace.packets[0]);
    for p in trace.packets.iter().take(16).skip(1) {
        stats.update(p);
    }
    bench("switch_fl_extract", || switch_fl_features(std::hint::black_box(&stats)));
}

fn synth() {
    group("synth");
    // The default streaming mix: 10k flows on 64 lanes.
    let cfg = StreamingConfig::default();
    let pkts = StreamingTrace::new(cfg.clone()).count() as f64;
    let stream =
        bench("streaming_materialize_10k_flows", || StreamingTrace::new(cfg.clone()).materialize());
    println!("   -> {:.1} ns/pkt over {pkts} packets", stream.mean_ns / pkts);

    // One overload-canon segment: a state-exhaustion storm over a benign
    // background, then one benign tail echoed nine times, each echo
    // shifted past the previous one and the idle timeout.
    let mut rng = Rng::seed_from_u64(12);
    let storm = Scenario::StateExhaustion.trace(16_000, 8.0, &mut rng);
    let storm_end = storm.packets.last().map_or(0, |p| p.ts_ns);
    let background = benign_trace(60, 8.0, &mut rng);
    let tail = benign_trace(150, 12.0, &mut rng);
    let gap = 2_500_000_000;
    let tail_span = tail.packets.last().map_or(0, |p| p.ts_ns) + gap;
    let mut segs = vec![background, storm];
    for echo in 0..9 {
        let mut t = tail.clone();
        t.shift_time(storm_end + gap + echo * tail_span);
        segs.push(t);
    }
    let pkts = segs.iter().map(Trace::len).sum::<usize>() as f64;
    // `merge` consumes its inputs, so each iteration clones them; the
    // clone is timed on its own and taken off.
    let clone = bench("storm_segments_clone", || segs.clone());
    let merge = bench("storm_segments_merge", || Trace::merge(segs.clone()));
    println!(
        "   -> {:.1} ns/pkt over {pkts} packets ({:.1} with the clone)",
        (merge.mean_ns - clone.mean_ns) / pkts,
        merge.mean_ns / pkts
    );
}

fn main() {
    training();
    inference();
    rulegen();
    pipeline();
    features();
    synth();
}
