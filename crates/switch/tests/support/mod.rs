//! Rule, trace and deployment builders shared by the switch integration
//! suites. Each suite compiles this module on its own and uses a subset
//! of it.

#![allow(dead_code)]

use iguard_core::early::EarlyModel;
use iguard_core::forest::{IGuardConfig, IGuardForest};
use iguard_core::rules::{Hypercube, RuleSet};
use iguard_core::teacher::OracleTeacher;
use iguard_flow::five_tuple::{FiveTuple, PROTO_TCP, PROTO_UDP};
use iguard_flow::packet::{Packet, TcpFlags};
use iguard_flow::table::FlowTableConfig;
use iguard_iforest::IsolationForestConfig;
use iguard_runtime::rng::Rng;
use iguard_switch::pipeline::PipelineConfig;
use iguard_synth::attacks::Attack;
use iguard_synth::benign::benign_trace;
use iguard_synth::trace::{extract_flows, first_packet_pl, ExtractConfig, Trace};

/// Pipeline config with a `slots`-per-table flow table and a 4-packet
/// classification threshold.
pub fn flow_cfg(slots: usize) -> PipelineConfig {
    PipelineConfig::default().with_flow_table(
        FlowTableConfig::default().with_slots_per_table(slots).with_pkt_threshold(4),
    )
}

/// A whitelist with one unbounded hypercube: every row is benign.
pub fn accept_all(dim: usize) -> RuleSet {
    RuleSet {
        bounds: vec![(0.0, 1.0); dim],
        whitelist: vec![Hypercube {
            lo: vec![f32::NEG_INFINITY; dim],
            hi: vec![f32::INFINITY; dim],
        }],
        total_regions: 1,
    }
}

/// FL whitelist benign iff mean packet size (feature 2) < `cut`. With
/// per-flow-constant sizes this classifies each flow identically on every
/// (re-)derivation; as a phase whitelist, large-packet flows convict at
/// the boundary and the rest escalate toward the final threshold.
pub fn fl_mean_size_below(cut: f32) -> RuleSet {
    let mut lo = vec![f32::NEG_INFINITY; 13];
    let mut hi = vec![f32::INFINITY; 13];
    lo[2] = f32::NEG_INFINITY;
    hi[2] = cut;
    RuleSet {
        bounds: vec![(0.0, 2000.0); 13],
        whitelist: vec![Hypercube { lo, hi }],
        total_regions: 2,
    }
}

/// FL whitelist benign iff the std of inter-packet delay (feature 10) is
/// above a floor: separates machine-regular flood tooling from benign
/// jitter, so a mixed trace exercises both digest labels.
pub fn fl_ipd_jitter_above(floor: f32) -> RuleSet {
    let mut lo = vec![f32::NEG_INFINITY; 13];
    let hi = vec![f32::INFINITY; 13];
    lo[10] = floor;
    RuleSet {
        bounds: vec![(0.0, 2000.0); 13],
        whitelist: vec![Hypercube { lo, hi }],
        total_regions: 2,
    }
}

/// One packet of flow `flow` (64 flows per source address, TCP and UDP
/// alternating) at `ts_ns`, `len` bytes on the wire.
pub fn pkt(flow: u32, ts_ns: u64, len: u16) -> Packet {
    Packet {
        ts_ns,
        five: FiveTuple::new(
            0x0A00_0000 | (flow >> 6),
            0xC0A8_0101,
            30_000 + (flow & 63) as u16,
            80,
            if flow & 1 == 0 { PROTO_TCP } else { PROTO_UDP },
        ),
        wire_len: len,
        ttl: 64,
        flags: TcpFlags::default(),
    }
}

/// A random whitelist: a handful of hypercubes with open/closed faces
/// (sometimes empty — then nothing matches and everything is malicious).
pub fn random_rules(rng: &mut Rng, dim: usize) -> RuleSet {
    let n = rng.gen_range(0usize..4);
    let whitelist = (0..n)
        .map(|_| {
            let mut lo = vec![f32::NEG_INFINITY; dim];
            let mut hi = vec![f32::INFINITY; dim];
            for d in 0..dim {
                if rng.gen_bool(0.5) {
                    lo[d] = rng.gen_range(-10.0f32..1000.0);
                }
                if rng.gen_bool(0.5) {
                    hi[d] = lo[d].max(0.0) + rng.gen_range(0.0f32..1500.0);
                }
            }
            Hypercube { lo, hi }
        })
        .collect();
    RuleSet { bounds: vec![(0.0, 2000.0); dim], whitelist, total_regions: n.max(1) }
}

/// `flows` random five-tuples from a small address/port space, so flows
/// collide in the tables and repeat across a packet stream.
pub fn random_pool(rng: &mut Rng, flows: usize) -> Vec<FiveTuple> {
    (0..flows)
        .map(|_| {
            FiveTuple::new(
                0x0A00_0000 | rng.gen_range(0u32..64),
                0xC0A8_0000 | rng.gen_range(0u32..64),
                rng.gen_range(1024u16..1024 + 32),
                [80u16, 443, 53][rng.gen_range(0..3usize)],
                if rng.gen_bool(0.7) { PROTO_TCP } else { PROTO_UDP },
            )
        })
        .collect()
}

/// A mixed benign + flood + scan trace of at least 10k packets.
pub fn mixed_trace() -> Trace {
    let mut rng = Rng::seed_from_u64(42);
    let benign = benign_trace(300, 8.0, &mut rng);
    let flood = Attack::UdpDdos.trace(60, 8.0, &mut rng);
    let scan = Attack::OsScan.trace(40, 8.0, &mut rng);
    let trace = Trace::merge(vec![benign, flood, scan]);
    assert!(trace.packets.len() >= 10_000, "trace too small: {}", trace.packets.len());
    trace
}

/// Interleaved trace of `flows` flows × `pkts_per_flow` packets with
/// per-flow-constant wire length: flows with `f % 3 == 0` send 1400 B
/// (malicious under the mean-size rule), the rest 120 B. Each flow
/// classifies identically on every (re-)derivation.
pub fn stable_trace(flows: u16, pkts_per_flow: u64) -> Trace {
    let mut t = Trace::new();
    for i in 0..(flows as u64 * pkts_per_flow) {
        let f = (i % flows as u64) as u16;
        let malicious = f % 3 == 0;
        let len = if malicious { 1400 } else { 120 };
        let pkt = Packet {
            ts_ns: i * 1_000_000,
            five: FiveTuple::new(0x0A000001, 0xC0A80101, 30_000 + f, 80, PROTO_TCP),
            wire_len: len,
            ttl: 64,
            flags: TcpFlags::default(),
        };
        t.push(pkt, malicious);
    }
    t
}

/// `flows` benign flows, then `flows` malicious ones, each sending `pkts`
/// packets round-robin within its half: 120 B for the benign flows,
/// 1400 B for the malicious (the classes [`fl_mean_size_below`]`(800.0)`
/// gives them). The digest stream shifts from benign to malicious
/// halfway, which fires a drift detector.
pub fn shifting_trace(flows: u32, pkts: u64) -> Trace {
    let mut t = Trace::new();
    let mut ts_ns = 0;
    for half in 0..2u32 {
        let len = if half == 0 { 120 } else { 1400 };
        for i in 0..flows as u64 * pkts {
            let flow = half * flows + (i % flows as u64) as u32;
            t.push(pkt(flow, ts_ns, len), half == 1);
            ts_ns += 1_000_000;
        }
    }
    t
}

/// The oracle teacher the trained fixtures distil: flood tooling is
/// machine-regular (feature 10, the std of inter-packet delay) or sends
/// oversized packets (feature 2, the mean size); benign jitter is neither.
pub fn flood_oracle() -> OracleTeacher<impl Fn(&[f32]) -> bool + Sync> {
    OracleTeacher(|x: &[f32]| x[10] < 0.0008 || x[2] > 1200.0)
}

/// The guided-forest shape every trained fixture uses.
pub fn fixture_forest_cfg() -> IGuardConfig {
    IGuardConfig { n_trees: 7, subsample: 64, k_augment: 64, ..Default::default() }
}

/// A trained deployment's `(fl, pl)` whitelists: a 7-tree guided forest
/// fitted on benign traffic under [`flood_oracle`], distilled and
/// compiled to FL rules, plus an early-packet iForest over first-packet
/// features compiled to PL rules. Deterministic in `seed`.
pub fn trained_rules(seed: u64) -> (RuleSet, RuleSet) {
    let mut rng = Rng::seed_from_u64(seed);
    let train_trace = benign_trace(300, 10.0, &mut rng);
    let train = extract_flows(&train_trace, &ExtractConfig::default());
    let (teacher, ig) = (flood_oracle(), fixture_forest_cfg());
    let mut forest = IGuardForest::fit(&train.features, &teacher, &ig, &mut rng);
    forest.distill(&train.features, &teacher, ig.k_augment, &mut rng);
    let fl = RuleSet::from_iguard(&forest, 600_000).expect("FL rule budget");

    let first_packets = first_packet_pl(&train_trace);
    let pl_cfg = IsolationForestConfig { n_trees: 10, subsample: 64, contamination: 0.05 };
    let early = EarlyModel::train(&first_packets, &pl_cfg, 600_000, &mut rng).expect("PL rules");
    (fl, early.rules)
}
