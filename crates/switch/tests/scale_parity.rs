//! Sketch-assisted ↔ exact parity at scale.
//!
//! With an infinite budget and a promote threshold of 1 the
//! [`SketchedPipeline`] takes the exact admission path and must be a
//! fingerprint match for [`Pipeline`] — same verdicts, seq-tagged digest
//! stream, whitelist/path counters, blacklist, processed count — at any
//! batch size, worker count, or shard grouping of the reference. With a
//! finite budget the pipeline becomes lossy in one direction only: its
//! blacklist is a subset of the exact run's, false positives are
//! unchanged, and the false-negative inflation is bounded by the
//! eviction/absorption work the sketch actually performed (the PR-4
//! lossy-convergence shape, applied to memory pressure instead of channel
//! faults).

mod support;

use std::collections::HashSet;

use iguard_core::rules::{Hypercube, RuleSet};
use iguard_flow::features::SWITCH_FL_DIM;
use iguard_flow::five_tuple::{FiveTuple, PROTO_UDP};
use iguard_flow::packet::{Packet, TcpFlags};
use iguard_flow::sketch::CountMinSketch;
use iguard_flow::table::FlowTableConfig;
use iguard_runtime::par::with_workers;
use iguard_runtime::proptest_lite;
use iguard_runtime::rng::Rng;
use iguard_switch::controller::{Controller, ControllerConfig};
use iguard_switch::pipeline::{
    ControlAction, PathCounters, Pipeline, PipelineConfig, ProcessOutcome, SeqDigest,
    WhitelistCounters,
};
use iguard_switch::replay::{replay, ReplayConfig, ReplayReport};
use iguard_switch::{DataPlane, SketchEviction, SketchedPipeline, SketchedPipelineConfig};
use iguard_synth::trace::Trace;
use iguard_synth::Zipf;
use support::{accept_all, random_pool, random_rules};

fn random_packets(rng: &mut Rng, pool: &[FiveTuple], n: usize) -> Vec<Packet> {
    let mut ts = 0u64;
    (0..n)
        .map(|_| {
            ts += if rng.gen_bool(0.02) { 10_000_000_000 } else { rng.gen_range(0u64..3_000_000) };
            let mut five = pool[rng.gen_range(0..pool.len())];
            if rng.gen_bool(0.3) {
                five = five.reversed();
            }
            Packet {
                ts_ns: ts,
                five,
                wire_len: [0u16, 1, 64, 120, 1400, u16::MAX][rng.gen_range(0..6usize)],
                ttl: [0u8, 1, 64, 255][rng.gen_range(0..4usize)],
                flags: TcpFlags::default(),
            }
        })
        .collect()
}

type Observed =
    (Vec<ProcessOutcome>, Vec<SeqDigest>, WhitelistCounters, PathCounters, Vec<FiveTuple>, u64);

fn drive(dp: &mut dyn DataPlane, batches: &[Vec<Packet>], victims: &[FiveTuple]) -> Observed {
    let mut out = Vec::new();
    let mut digests = Vec::new();
    let mut buf = Vec::new();
    for (b, batch) in batches.iter().enumerate() {
        if b == batches.len() / 2 {
            for &v in victims {
                dp.apply(ControlAction::InstallBlacklist(v));
            }
            if let Some(&v) = victims.first() {
                dp.apply(ControlAction::RemoveBlacklist(v));
            }
        }
        dp.process_batch(batch, &mut buf);
        out.extend_from_slice(&buf);
        dp.drain_seq_digests_into(&mut digests);
    }
    (
        out,
        digests,
        dp.whitelist_counters(),
        dp.counters(),
        dp.blacklist_contents(),
        dp.packets_processed(),
    )
}

fn random_cfg(rng: &mut Rng) -> PipelineConfig {
    PipelineConfig::default()
        .with_flow_table(FlowTableConfig::default().with_pkt_threshold(rng.gen_range(2u64..6)))
        .with_drop_malicious(rng.gen_bool(0.8))
        .with_log_compress(rng.gen_bool(0.5))
}

/// Re-slices one packet stream into batches of `size`.
fn slices(pkts: &[Packet], size: usize) -> Vec<Vec<Packet>> {
    pkts.chunks(size.max(1)).map(|c| c.to_vec()).collect()
}

proptest_lite! {
    /// Infinite budget + promote threshold 1 (the defaults): the sketched
    /// backend is the exact pipeline. Fingerprints match at every worker
    /// count, and its sketch stats report the unbudgeted configuration.
    fn exact_mode_matches_pipeline_everywhere(rng) {
        let cfg = random_cfg(rng);
        let fl = random_rules(rng, SWITCH_FL_DIM);
        let pl = random_rules(rng, 4);
        let flows = rng.gen_range(4usize..24);
        let pool = random_pool(rng, flows);
        let batches: Vec<Vec<Packet>> = (0..rng.gen_range(2usize..6))
            .map(|_| {
                let n = rng.gen_range(1usize..200);
                random_packets(rng, &pool, n)
            })
            .collect();
        let victims: Vec<FiveTuple> =
            (0..3).map(|_| pool[rng.gen_range(0..pool.len())]).collect();

        let mut exact = Pipeline::new(cfg, fl.clone(), pl.clone());
        let want = drive(&mut exact, &batches, &victims);

        for workers in [1usize, 2, 8] {
            let (got, stats) = with_workers(workers, || {
                let scfg = SketchedPipelineConfig::default().with_pipeline(cfg);
                let mut dp = SketchedPipeline::new(scfg, fl.clone(), pl.clone());
                let obs = drive(&mut dp, &batches, &victims);
                (obs, dp.sketch_stats().expect("sketched backend reports stats"))
            });
            assert_eq!(got, want, "sketched/workers({workers}) != exact Pipeline");
            assert_eq!(stats.budget_bytes, None);
            assert_eq!(stats.max_tracked, usize::MAX);
            assert_eq!(stats.evicted, 0, "nothing may evict without a budget");
            assert_eq!(stats.absorbed, 0, "threshold 1 must bypass the sketch");
        }
    }

    /// The sketched walk is per-packet, so even a *budgeted* run is
    /// batch-size invariant: one stream sliced at 1 / prime / >chunk sizes
    /// yields identical fingerprints (no mid-stream installs, so feedback
    /// granularity is out of the picture).
    fn sketched_fingerprint_is_batch_size_invariant(rng, cases = 10) {
        let cfg = random_cfg(rng);
        let fl = random_rules(rng, SWITCH_FL_DIM);
        let pl = random_rules(rng, 4);
        let pool = random_pool(rng, 32);
        let n = rng.gen_range(600usize..1500);
        let pkts = random_packets(rng, &pool, n);
        let scfg = SketchedPipelineConfig::default()
            .with_pipeline(cfg)
            .with_budget_bytes(Some(8 * iguard_flow::table::FlowShard::slot_bytes()))
            .with_promote_threshold(2)
            .with_eviction(SketchEviction::Lru);

        let run = |size: usize| {
            let mut dp = SketchedPipeline::new(scfg, fl.clone(), pl.clone());
            drive(&mut dp, &slices(&pkts, size), &[])
        };
        let want = run(1);
        for size in [97usize, 1024 + 7, pkts.len()] {
            assert_eq!(run(size), want, "budgeted sketched run differs at batch {size}");
        }
    }

    /// Every eviction policy holds the budget invariant after every batch,
    /// and each policy's run is a deterministic function of its seed.
    fn eviction_policies_hold_budget_and_are_deterministic(rng, cases = 8) {
        let cfg = PipelineConfig::default()
            .with_flow_table(FlowTableConfig::default().with_pkt_threshold(3));
        let fl = random_rules(rng, SWITCH_FL_DIM);
        let pl = random_rules(rng, 4);
        let pool = random_pool(rng, 200);
        let pkts = random_packets(rng, &pool, 1200);
        let slots = rng.gen_range(2usize..12);
        let seed = rng.next_u64();

        for policy in
            [SketchEviction::Fifo, SketchEviction::Lru, SketchEviction::Random, SketchEviction::TwoQ]
        {
            let scfg = SketchedPipelineConfig::default()
                .with_pipeline(cfg)
                .with_budget_bytes(Some(slots * iguard_flow::table::FlowShard::slot_bytes()))
                .with_eviction(policy)
                .with_seed(seed);
            let run = || {
                let mut dp = SketchedPipeline::new(scfg, fl.clone(), pl.clone());
                let mut buf = Vec::new();
                let mut digests = Vec::new();
                for batch in pkts.chunks(64) {
                    dp.process_batch(batch, &mut buf);
                    let stats = dp.sketch_stats().unwrap();
                    assert!(
                        stats.tracked <= stats.max_tracked,
                        "{policy:?}: tracked {} over budget {}",
                        stats.tracked,
                        stats.max_tracked
                    );
                    assert_eq!(stats.max_tracked, slots);
                    assert!(stats.resident_bytes <= slots * iguard_flow::table::FlowShard::slot_bytes());
                    dp.drain_seq_digests_into(&mut digests);
                }
                (digests, dp.counters(), dp.sketch_stats().unwrap())
            };
            assert_eq!(run(), run(), "{policy:?} is not seed-deterministic");
        }
    }
}

/// Constant-rate, constant-size flows: every observation window of a flow
/// produces the same feature vector, so classification is invariant to
/// eviction restarts — the precondition of the exact-FP claim.
fn uniform_trace(benign: usize, malicious: usize, pkts_per_flow: usize) -> Trace {
    let mut packets = Vec::new();
    let mut labels = Vec::new();
    for f in 0..(benign + malicious) {
        let bad = f >= benign;
        let five = FiveTuple::new(
            0x0A00_0100 + f as u32,
            0xC0A8_0001,
            2000 + f as u16,
            if bad { 9999 } else { 443 },
            PROTO_UDP,
        );
        for p in 0..pkts_per_flow {
            packets.push(Packet {
                // Flows fully interleaved (round-robin) to force churn.
                ts_ns: (p * (benign + malicious) + f) as u64 * 1_000_000,
                five,
                wire_len: if bad { 1200 } else { 64 },
                ttl: 64,
                flags: TcpFlags::default(),
            });
            labels.push(bad);
        }
    }
    packets.sort_by_key(|p| p.ts_ns);
    // Labels follow the same (ts, flow) ordering: rebuild from dst_port.
    let labels = packets.iter().map(|p| p.five.canonical().dst_port == 9999).collect();
    Trace { packets, labels }
}

fn mean_size_whitelist(cut: f32) -> RuleSet {
    let lo = vec![f32::NEG_INFINITY; SWITCH_FL_DIM];
    let mut hi = vec![f32::INFINITY; SWITCH_FL_DIM];
    hi[2] = cut; // feature 2 = mean packet size
    RuleSet {
        bounds: vec![(0.0, 2000.0); SWITCH_FL_DIM],
        whitelist: vec![Hypercube { lo, hi }],
        total_regions: 2,
    }
}

fn pipeline_cfg() -> PipelineConfig {
    PipelineConfig::default()
        .with_flow_table(FlowTableConfig::default().with_pkt_threshold(4))
        .with_drop_malicious(true)
}

fn replay_budget(
    trace: &Trace,
    budget_slots: Option<usize>,
    promote_threshold: u32,
) -> (ReplayReport, Vec<FiveTuple>, iguard_switch::SketchStats) {
    let scfg = SketchedPipelineConfig::default()
        .with_pipeline(pipeline_cfg())
        .with_budget_bytes(budget_slots.map(|s| s * iguard_flow::table::FlowShard::slot_bytes()))
        .with_promote_threshold(promote_threshold)
        .with_eviction(SketchEviction::Lru);
    let mut dp = SketchedPipeline::new(scfg, mean_size_whitelist(200.0), accept_all(4));
    let mut c = Controller::new(ControllerConfig::default());
    let cfg = ReplayConfig::default().with_batch_size(8);
    let r = replay(trace, &mut dp, &mut c, &cfg);
    let stats = dp.sketch_stats().unwrap();
    (r, dp.blacklist_contents(), stats)
}

/// The PR-4 lossy-convergence shape under memory pressure: a finite
/// budget may only *miss* malicious flows (subset blacklist, inflated
/// FN), never invent detections (exact FP equality), and the inflation is
/// bounded by the work the sketch actually shed.
#[test]
fn finite_budget_is_one_sided_lossy() {
    let trace = uniform_trace(40, 24, 12);
    let (exact, exact_bl, exact_stats) = replay_budget(&trace, None, 1);
    assert_eq!(exact_stats.evicted, 0);
    assert!(exact.tp > 0, "exact run must detect the large-packet flows");
    assert_eq!(exact.fp, 0, "constant 64-byte flows are whitelisted");
    assert_eq!(exact_bl.len(), 24, "every malicious flow blacklisted exactly once");

    for (slots, promote) in [(8usize, 1u32), (8, 3), (16, 2)] {
        let (lossy, lossy_bl, stats) = replay_budget(&trace, Some(slots), promote);
        let exact_set: HashSet<FiveTuple> = exact_bl.iter().copied().collect();
        assert!(
            lossy_bl.iter().all(|f| exact_set.contains(f)),
            "budget({slots}) blacklist must be a subset of the exact blacklist"
        );
        assert_eq!(lossy.fp, exact.fp, "budget({slots}) invented false positives");
        assert_eq!(lossy.packets, exact.packets, "budget({slots}) lost packets");
        assert_eq!(
            lossy.tp + lossy.fn_,
            exact.tp + exact.fn_,
            "ground truth is fixed: positives must be conserved"
        );
        assert!(lossy.fn_ >= exact.fn_, "a budget cannot reduce false negatives here");
        let pkt_threshold = 4u64;
        let bound = exact.fn_ + stats.evicted * pkt_threshold + stats.absorbed;
        assert!(
            lossy.fn_ <= bound,
            "budget({slots}/p{promote}) fn {} exceeds shed-work bound {} \
             (evicted {}, absorbed {})",
            lossy.fn_,
            bound,
            stats.evicted,
            stats.absorbed
        );
    }
}

/// 10k distinct flows forced through a 16-slot budget: heavy churn, no
/// panics, no digest sequence tag ever reused.
#[test]
fn ten_thousand_flows_through_sixteen_slots() {
    let mut rng = Rng::seed_from_u64(0xD15C);
    let pool = random_pool(&mut rng, 10_000);
    // Widen the pool beyond random_pool's 64×64 address grid so the flows
    // are genuinely distinct.
    let pool: Vec<FiveTuple> = pool
        .iter()
        .enumerate()
        .map(|(i, f)| {
            FiveTuple::new(0x0A00_0000 + i as u32, f.dst_ip, f.src_port, f.dst_port, f.proto)
        })
        .collect();
    let pkts = random_packets(&mut rng, &pool, 40_000);
    let scfg = SketchedPipelineConfig::default()
        .with_pipeline(pipeline_cfg())
        .with_budget_bytes(Some(16 * iguard_flow::table::FlowShard::slot_bytes()))
        .with_promote_threshold(2)
        .with_eviction(SketchEviction::TwoQ);
    let mut dp = SketchedPipeline::new(scfg, mean_size_whitelist(200.0), accept_all(4));
    let mut buf = Vec::new();
    let mut digests: Vec<SeqDigest> = Vec::new();
    for batch in pkts.chunks(512) {
        dp.process_batch(batch, &mut buf);
        dp.drain_seq_digests_into(&mut digests);
        let stats = dp.sketch_stats().unwrap();
        assert!(stats.tracked <= 16, "tracked {} breaches the 16-slot budget", stats.tracked);
    }
    let mut seqs: Vec<u64> = digests.iter().map(|d| d.seq).collect();
    let n = seqs.len();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), n, "digest sequence tags must never repeat");
    assert_eq!(dp.packets_processed(), pkts.len() as u64);
    let stats = dp.sketch_stats().unwrap();
    assert!(stats.evicted > 0, "churn workload must actually evict");
    assert!(stats.absorbed > 0, "short flows must be absorbed by the sketch");
}

/// The count–min ε/δ guarantee on an adversarial (maximally skewed) Zipf
/// stream generated by the synth crate's sampler: estimates only ever
/// overestimate, and the fraction of keys overestimating by more than
/// ε·N stays within a generous multiple of δ.
#[test]
fn cms_bound_holds_on_adversarial_zipf_stream() {
    let mut rng = Rng::seed_from_u64(0x21BF);
    let users = 4096u64;
    let zipf = Zipf::new(users, 1.3);
    let mut cms = CountMinSketch::with_error_bound(0.01, 0.01, 99);
    let mut truth: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let total = 60_000u64;
    for _ in 0..total {
        let rank = zipf.sample(&mut rng) as u32;
        let key = FiveTuple::new(0x0A00_0000 + rank, 0xC0A8_0001, 1234, 80, PROTO_UDP);
        cms.increment(&key);
        *truth.entry(rank).or_insert(0) += 1;
    }
    let eps_n = cms.error_bound(total);
    let mut violations = 0usize;
    for (&rank, &count) in &truth {
        let key = FiveTuple::new(0x0A00_0000 + rank, 0xC0A8_0001, 1234, 80, PROTO_UDP);
        let est = cms.estimate(&key);
        assert!(est >= count, "CMS underestimated rank {rank}: {est} < {count}");
        if u64::from(est - count) > eps_n {
            violations += 1;
        }
    }
    let frac = violations as f64 / truth.len() as f64;
    assert!(frac <= 4.0 * cms.delta(), "violation fraction {frac} vs δ {}", cms.delta());
}

/// FNV-1a over the `Debug` rendering of a run — a stable 64-bit digest,
/// so the golden table below can pin a whole fingerprint in one literal.
fn fnv1a64(s: &str) -> u64 {
    s.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01B3))
}

/// One budgeted sketched run, fed in batches of `batch` packets with
/// controller feedback at fixed batch indices: blacklist installs plus a
/// removal, and `ClearFlow`s that must also leave the eviction book.
/// Returns the digest of everything observable plus the sketch and
/// overload views (for the case-specific sanity checks).
fn budgeted_fingerprint(
    scfg: SketchedPipelineConfig,
    phase_rules: &[RuleSet],
    pl: &RuleSet,
    pkts: &[Packet],
    pool: &[FiveTuple],
    batch: usize,
) -> (u64, iguard_switch::SketchStats, iguard_switch::OverloadStats) {
    let mut dp = SketchedPipeline::new(scfg, mean_size_whitelist(600.0), pl.clone());
    dp.set_phase_rulesets(phase_rules);
    let (mut out, mut digests, mut buf) = (Vec::new(), Vec::new(), Vec::new());
    for (b, chunk) in pkts.chunks(batch).enumerate() {
        // Feedback lands at fixed packet offsets, whatever the batch size.
        let (lo, hi) = (b * batch, b * batch + chunk.len());
        if (lo..hi).contains(&(pkts.len() / 3)) {
            for &v in &pool[..4] {
                dp.apply(ControlAction::InstallBlacklist(v));
            }
            dp.apply(ControlAction::RemoveBlacklist(pool[0]));
        }
        if (lo..hi).contains(&(2 * pkts.len() / 3)) {
            for &v in &pool[4..12] {
                dp.apply(ControlAction::ClearFlow(v));
            }
        }
        dp.process_batch(chunk, &mut buf);
        out.extend_from_slice(&buf);
        dp.drain_seq_digests_into(&mut digests);
    }
    let sketch = dp.sketch_stats().expect("sketched backend reports stats");
    let overload = dp.overload_stats();
    let seen = format!(
        "{out:?}|{digests:?}|{sketch:?}|{overload:?}|{:?}|{:?}|{:?}|{}",
        dp.whitelist_counters(),
        dp.counters(),
        dp.blacklist_contents(),
        dp.packets_processed()
    );
    (fnv1a64(&seen), sketch, overload)
}

/// Golden fingerprints of the budgeted sketched walk: every eviction
/// policy, promote thresholds 2 and 3, 16- and 64-slot budgets, a case
/// with phase rulesets installed, and a pressure case whose tightened
/// admission bar rejects flows. The literals were recorded from the
/// per-packet sketched walk; any rewrite of the walk must reproduce them.
/// One literal per batch size (1, a prime, and one straddling the
/// 1,024-row chunk boundary): the overload clock ticks once per batch, so
/// degraded-mode residency — and with it the fingerprint — is a function
/// of the batch size.
#[test]
fn budgeted_sketched_walk_matches_golden_fingerprints() {
    let mut rng = Rng::seed_from_u64(0x5EED_0014);
    let pool = random_pool(&mut rng, 300);
    let pkts = random_packets(&mut rng, &pool, 5000);
    let pl = random_rules(&mut rng, 4);
    let phase_rules = [mean_size_whitelist(300.0), mean_size_whitelist(450.0)];
    let slot = iguard_flow::table::FlowShard::slot_bytes();
    let base = |threshold: u64| {
        PipelineConfig::default()
            .with_flow_table(FlowTableConfig::default().with_pkt_threshold(threshold))
    };
    let sketched = |pipe: PipelineConfig, slots: usize, promote: u32, policy| {
        SketchedPipelineConfig::default()
            .with_pipeline(pipe)
            .with_budget_bytes(Some(slots * slot))
            .with_promote_threshold(promote)
            .with_eviction(policy)
    };
    let phased = PipelineConfig::default().with_flow_table(
        FlowTableConfig::default()
            .with_pkt_threshold(6)
            .with_phases(iguard_flow::table::PhaseSchedule::new(&[2, 4])),
    );
    // A 4-slot table under 300 never-classified flows collides on almost
    // every promoted packet: churn passes the degraded-enter pressure and
    // the promote bar doubles (the table, not the budget, caps residency).
    let pressured = PipelineConfig::default()
        .with_flow_table(FlowTableConfig::default().with_pkt_threshold(50).with_slots_per_table(2));
    #[rustfmt::skip]
    let cases: [(&str, SketchedPipelineConfig, bool, [u64; 3]); 9] = [
        ("fifo/16/p2", sketched(base(4), 16, 2, SketchEviction::Fifo), false, [0xdc71dbf12c438b7b, 0x3a362e091e2104a8, 0xa0be62899a5b1613]),
        ("lru/16/p2", sketched(base(4), 16, 2, SketchEviction::Lru), false, [0x8f7cb384ba8be409, 0xa8d11522702e43c2, 0xc45791b327bcbf5f]),
        ("random/16/p2", sketched(base(4), 16, 2, SketchEviction::Random), false, [0xf2f31e19093e1404, 0x10d6be0b6d32a157, 0x1cd6d25126be8144]),
        ("twoq/16/p2", sketched(base(4), 16, 2, SketchEviction::TwoQ), false, [0x4d255dae482ed3dc, 0xb6c06ff18c6c357b, 0x0935f1f3cc977891]),
        ("lru/64/p3", sketched(base(3), 64, 3, SketchEviction::Lru), false, [0x98d4817eac776ed0, 0x0ee6b097137e0799, 0x7602feb49381a591]),
        ("twoq/64/p3", sketched(base(5), 64, 3, SketchEviction::TwoQ), false, [0x93d509b90085c08f, 0x1d63ca2d4267835b, 0x517bb8acad9c675a]),
        ("fifo/64/p2", sketched(base(4), 64, 2, SketchEviction::Fifo), false, [0x1f98f5edb4157e3d, 0x867727415f754356, 0x25f23de79fffc6cc]),
        ("phases/twoq/16/p2", sketched(phased, 16, 2, SketchEviction::TwoQ), true, [0xc83467983ce59a6c, 0x747bb7d0e047631c, 0x7f182f54da77fe5e]),
        ("pressure/lru/64/p2", sketched(pressured, 64, 2, SketchEviction::Lru), false, [0x51f6867050870b11, 0xf19c20fb6a30097b, 0x8e180215ab11d7b6]),
    ];
    for (name, scfg, with_phases, golden) in cases {
        let rules: &[RuleSet] = if with_phases { &phase_rules } else { &[] };
        for (batch, want) in [1usize, 97, 1024 + 300].into_iter().zip(golden) {
            let (fp, sketch, overload) =
                budgeted_fingerprint(scfg, rules, &pl, &pkts, &pool, batch);
            assert!(sketch.absorbed > 0, "{name}: {sketch:?}");
            if name.starts_with("pressure") {
                assert!(overload.admission_tightened > 0, "{name}: {overload:?}");
            } else {
                assert!(sketch.evicted > 0, "{name}: {sketch:?}");
            }
            assert_eq!(fp, want, "{name}: batch {batch} drifted from the golden walk ({fp:#018x})");
        }
    }
}
