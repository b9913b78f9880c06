//! Byte-level fingerprints of every trace generator.
//!
//! Each case hashes (FNV-1a) every field of every packet plus its label,
//! so any change to a generator's draw order, parameter jitter, mixture
//! walk or packet walk shows here in one second, before it reaches a
//! detection golden downstream. The literals were recorded before the
//! materialised and streaming generators were folded onto one per-flow
//! sampler; a rewrite of either must reproduce them. The canon-scenario,
//! `Trace::merge`, adversarial-transform and lane-count literals were
//! recorded on the heap-merged stream and the zip-and-sort ordering, before
//! both were replaced by the loser-tree merge and the single ordering step.

use iguard_flow::packet::Packet;
use iguard_runtime::rng::Rng;
use iguard_synth::adversarial::{evasion_blend, low_rate};
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

#[test]
fn state_exhaustion_fingerprint() {
    let t = Scenario::StateExhaustion.trace(400, 8.0, &mut Rng::seed_from_u64(5));
    assert_eq!(trace_fingerprint(&t), (803, 9_706_353_711_539_540_807));
}

#[test]
fn pulse_wave_fingerprint() {
    let t = Scenario::PulseWave.trace(200, 12.0, &mut Rng::seed_from_u64(6));
    assert_eq!(trace_fingerprint(&t), (1864, 10_014_642_031_523_272_296));
}

#[test]
fn c2_beacon_fingerprint() {
    let t = Scenario::C2Beacon.trace(40, 60.0, &mut Rng::seed_from_u64(7));
    assert_eq!(trace_fingerprint(&t), (475, 700_324_042_638_600_816));
}

/// Overlapping inputs for `Trace::merge`: a benign background, an attack,
/// an echo of the attack on the same timestamps with the other labels
/// (ties across inputs), a millisecond-rounded trace in reverse time order
/// (out of order, with ties inside it) and an empty input.
fn merge_inputs(rng: &mut Rng) -> Vec<Trace> {
    let benign = benign_trace(60, 5.0, rng);
    let attack = Attack::UdpDdos.trace(40, 5.0, rng);
    let mut echo = attack.clone();
    for (p, l) in echo.packets.iter_mut().zip(&mut echo.labels) {
        p.wire_len ^= 1;
        *l = !*l;
    }
    let mut backwards = Attack::OsScan.trace(30, 5.0, rng);
    for p in &mut backwards.packets {
        p.ts_ns -= p.ts_ns % 1_000_000;
    }
    backwards.packets.reverse();
    for (i, l) in backwards.labels.iter_mut().enumerate() {
        *l = i % 3 != 0;
    }
    vec![benign, attack, Trace::new(), echo, backwards]
}

#[test]
fn merge_fingerprint() {
    let t = Trace::merge(merge_inputs(&mut Rng::seed_from_u64(8)));
    assert_eq!(trace_fingerprint(&t), (9840, 1_562_025_474_254_069_237));
}

#[test]
fn low_rate_fingerprint() {
    let mut rng = Rng::seed_from_u64(9);
    let base =
        Trace::merge(vec![benign_trace(40, 5.0, &mut rng), Attack::Mirai.trace(20, 5.0, &mut rng)]);
    assert_eq!(trace_fingerprint(&low_rate(&base, 10.0)), (961, 15_386_062_512_576_954_947));
}

#[test]
fn evasion_blend_fingerprint() {
    let mut rng = Rng::seed_from_u64(10);
    let base = Trace::merge(vec![
        benign_trace(40, 5.0, &mut rng),
        Attack::TcpDdos.trace(20, 5.0, &mut rng),
    ]);
    assert_eq!(
        trace_fingerprint(&evasion_blend(&base, 2, &mut rng)),
        (5450, 13_765_508_804_359_286_719)
    );
}

/// Lane counts of one, three (not a power of two) and 65 (one past a
/// power of two), and a flow budget below the lane count.
#[test]
fn streaming_lane_count_fingerprints() {
    let cases = [
        (1, 300, (7509, 14_787_794_218_520_203_738)),
        (3, 300, (7302, 414_837_460_561_275_198)),
        (65, 1_000, (26081, 874_012_467_951_585_122)),
        (64, 10, (167, 8_746_134_208_760_943_462)),
    ];
    for (lanes, total_flows, want) in cases {
        let cfg = StreamingConfig { lanes, total_flows, seed: 11, ..Default::default() };
        let got = fingerprint(StreamingTrace::new(cfg));
        assert_eq!(got, want, "lanes {lanes}, flows {total_flows}");
    }
}
