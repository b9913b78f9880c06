//! Byte-level fingerprints of every trace generator.
//!
//! Each case hashes (FNV-1a) every field of every packet plus its label,
//! so any change to a generator's draw order, parameter jitter, mixture
//! walk or packet walk shows here in one second, before it reaches a
//! detection golden downstream. The literals were recorded before the
//! materialised and streaming generators were folded onto one per-flow
//! sampler; a rewrite of either must reproduce them.

use iguard_flow::packet::Packet;
use iguard_runtime::rng::Rng;
use iguard_synth::benign::benign_trace;
use iguard_synth::{Attack, Scenario, StreamingConfig, StreamingTrace, Trace};

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01B3))
}

/// `(packets, fingerprint)` over every packet field and label.
fn fingerprint(stream: impl Iterator<Item = (Packet, bool)>) -> (usize, u64) {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut n = 0;
    for (p, label) in stream {
        let f = p.flags;
        h = fnv1a(h, &p.ts_ns.to_le_bytes());
        h = fnv1a(h, &p.five.src_ip.to_le_bytes());
        h = fnv1a(h, &p.five.dst_ip.to_le_bytes());
        h = fnv1a(h, &p.five.src_port.to_le_bytes());
        h = fnv1a(h, &p.five.dst_port.to_le_bytes());
        h = fnv1a(h, &[p.five.proto, p.ttl]);
        h = fnv1a(h, &p.wire_len.to_le_bytes());
        h = fnv1a(h, &[f.syn as u8, f.ack as u8, f.fin as u8, f.rst as u8, f.psh as u8]);
        h = fnv1a(h, &[label as u8]);
        n += 1;
    }
    (n, h)
}

fn trace_fingerprint(t: &Trace) -> (usize, u64) {
    fingerprint(t.packets.iter().copied().zip(t.labels.iter().copied()))
}

#[test]
fn benign_trace_fingerprint() {
    let t = benign_trace(500, 30.0, &mut Rng::seed_from_u64(1));
    assert_eq!(trace_fingerprint(&t), (11102, 13_961_141_107_832_856_793));
}

#[test]
fn router_variant_attack_fingerprint() {
    let t = Attack::MiraiRouterFilter.trace(200, 20.0, &mut Rng::seed_from_u64(2));
    assert_eq!(trace_fingerprint(&t), (1005, 13_491_264_523_987_005_124));
}

#[test]
fn canon_scenario_fingerprint() {
    let t = Scenario::Slowloris.trace(300, 20.0, &mut Rng::seed_from_u64(3));
    assert_eq!(trace_fingerprint(&t), (9906, 18_081_108_708_059_871_998));
}

#[test]
fn streaming_trace_fingerprint() {
    let cfg = StreamingConfig { total_flows: 2_000, lanes: 32, ..Default::default() };
    assert_eq!(fingerprint(StreamingTrace::new(cfg)), (51161, 10_963_305_488_833_458_761));
}
