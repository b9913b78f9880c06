//! The adversarial overload scenario canon.
//!
//! Four scenarios engineered against the data plane's *stateful* stages,
//! complementing the 15 paper attacks in [`crate::attacks`] (which stress
//! the classifier, not the storage):
//!
//! * **state-exhaustion churn** — a flood of short SYN-probe flows from a
//!   wide source pool, each claiming a flow-table slot for 1–3 packets.
//!   Once the table fills, every further flow displaces or collides: the
//!   churn-rate pressure signature.
//! * **pulse-wave DDoS** — a persistent bot set bursting in pulses whose
//!   inter-pulse gap ([`PULSE_GAP_NS`]) *exceeds* the flow-table idle
//!   timeout, so every returning flow straddles the timeout boundary and
//!   re-enters through the timeout-restart path, plus fresh ephemeral
//!   churn flows per pulse to spike pressure during the burst.
//! * **slowloris** — connections held open with slow trickles of small
//!   packets and no FIN, squatting table slots far longer than honest
//!   conversations.
//! * **low-rate C2 beaconing** — metronomic beacons spaced wider than the
//!   idle timeout: every beacon times out and re-freezes single-packet
//!   state, hiding below the packet threshold indefinitely.
//!
//! All traces are seeded (every sample flows through the caller's RNG),
//! fully materialised, and sorted by timestamp — batch-size invariant by
//! construction. IP pools are disjoint from both the paper-attack pools
//! (`crate::attacks`) and the benign generator, so a canon storm never
//! shares a 5-tuple with the surrounding traffic — which is what lets the
//! recovery gates compare storm-worn and fresh pipelines on the same
//! follow-on traffic.

use iguard_flow::five_tuple::{FiveTuple, PROTO_TCP};
use iguard_flow::packet::{Packet, TcpFlags};
use iguard_runtime::rng::Rng;

use crate::profile::{
    gen_trace, FlagsModel, FlowProfile, IpdModel, PortModel, ScenarioConfig, SizeModel,
};
use crate::trace::Trace;

/// Source pool of the canon: 203.0.113.0 (TEST-NET-3) upward — disjoint
/// from the attack bot pool (172.16/12), the router (192.168.1.1), the
/// attack victims (198.51.100/24), and the benign device pool.
pub const SCENARIO_SRC_BASE: u32 = 0xCB00_7100;
/// Victim pool of the canon: 192.0.2.0 (TEST-NET-1) upward.
pub const SCENARIO_DST_BASE: u32 = 0xC000_0200;

/// Burst width of one pulse-wave pulse.
pub const PULSE_BURST_NS: u64 = 400_000_000; // 0.4 s
/// Idle gap between pulses. Strictly greater than the default flow-table
/// idle timeout (2 s), so a persistent flow returning in the next pulse
/// always re-enters through the timeout-restart path.
pub const PULSE_GAP_NS: u64 = 3_000_000_000; // 3 s

/// One overload scenario of the canon.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    StateExhaustion,
    PulseWave,
    Slowloris,
    C2Beacon,
}

/// Every scenario, in canonical (report) order.
pub const ALL_SCENARIOS: [Scenario; 4] =
    [Scenario::StateExhaustion, Scenario::PulseWave, Scenario::Slowloris, Scenario::C2Beacon];

impl Scenario {
    /// Stable scenario identifier (report keys, test names).
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::StateExhaustion => "state_exhaustion",
            Scenario::PulseWave => "pulse_wave",
            Scenario::Slowloris => "slowloris",
            Scenario::C2Beacon => "c2_beacon",
        }
    }

    /// Generates this scenario's malicious trace: `intensity` flows (the
    /// pulse wave splits them between its persistent bot set and its
    /// per-pulse churn) over roughly `window_secs`. Seeded and fully
    /// materialised — identical packets for identical `(intensity,
    /// window_secs, rng seed)` regardless of how the caller batches them.
    pub fn trace(&self, intensity: usize, window_secs: f64, rng: &mut Rng) -> Trace {
        match self {
            Scenario::StateExhaustion => {
                let profile = FlowProfile {
                    name: "state-exhaustion-churn",
                    proto: PROTO_TCP,
                    dst_port: PortModel::Range(1, 1024),
                    size: SizeModel { mean: 60.0, std: 4.0, min: 54, max: 80 },
                    ipd: IpdModel { mean_ms: 1.0, std_ms: 0.5 },
                    pkts: (1, 3),
                    ttl: 64,
                    ttl_jitter: 8,
                    flags: FlagsModel::syn_probe(),
                };
                let sc = ScenarioConfig {
                    flows: intensity,
                    window_secs,
                    src_base: SCENARIO_SRC_BASE,
                    src_count: (intensity as u32).clamp(256, 1 << 16),
                    dst_base: SCENARIO_DST_BASE,
                    dst_count: 8,
                };
                gen_trace(&[(profile, 1.0)], &sc, true, rng)
            }
            Scenario::PulseWave => pulse_wave(intensity, window_secs, rng),
            Scenario::Slowloris => {
                let profile = FlowProfile {
                    name: "slowloris",
                    proto: PROTO_TCP,
                    dst_port: PortModel::Fixed(80),
                    size: SizeModel { mean: 90.0, std: 20.0, min: 60, max: 200 },
                    ipd: IpdModel { mean_ms: 900.0, std_ms: 350.0 },
                    pkts: (16, 48),
                    ttl: 64,
                    ttl_jitter: 4,
                    // Held open: SYN, then bare ACK trickle, never a FIN.
                    flags: FlagsModel {
                        syn_first: true,
                        syn_all: false,
                        ack_rest: true,
                        fin_last: false,
                    },
                };
                let sc = ScenarioConfig {
                    flows: intensity,
                    window_secs,
                    src_base: SCENARIO_SRC_BASE,
                    src_count: (intensity as u32).clamp(64, 1 << 12),
                    dst_base: SCENARIO_DST_BASE,
                    dst_count: 2,
                };
                gen_trace(&[(profile, 1.0)], &sc, true, rng)
            }
            Scenario::C2Beacon => {
                let profile = FlowProfile {
                    name: "c2-beacon",
                    proto: PROTO_TCP,
                    dst_port: PortModel::Fixed(443),
                    // Metronomic: tiny size/IPD variance, cadence > 2 s
                    // timeout even after the per-flow hyper-prior jitter
                    // (0.7 × 3 s = 2.1 s floor).
                    size: SizeModel { mean: 120.0, std: 6.0, min: 90, max: 160 },
                    ipd: IpdModel { mean_ms: 3_000.0, std_ms: 120.0 },
                    pkts: (8, 16),
                    ttl: 64,
                    ttl_jitter: 2,
                    flags: FlagsModel {
                        syn_first: true,
                        syn_all: false,
                        ack_rest: true,
                        fin_last: false,
                    },
                };
                let sc = ScenarioConfig {
                    flows: intensity,
                    window_secs,
                    src_base: SCENARIO_SRC_BASE,
                    src_count: (intensity as u32).clamp(64, 1 << 12),
                    dst_base: SCENARIO_DST_BASE,
                    dst_count: 4,
                };
                gen_trace(&[(profile, 1.0)], &sc, true, rng)
            }
        }
    }
}

/// Number of pulses a pulse-wave trace of `window_secs` fits.
pub fn pulse_count(window_secs: f64) -> usize {
    let period = (PULSE_BURST_NS + PULSE_GAP_NS) as f64 / 1e9;
    ((window_secs / period) as usize).max(2)
}

/// The pulse-wave generator. Half of `intensity` is a *persistent* bot
/// set whose 5-tuples recur in every pulse — each return lands
/// [`PULSE_GAP_NS`] after the previous burst ended, past the idle
/// timeout, exercising the timeout-restart path on a still-resident slot.
/// The other half is spent on *ephemeral* churn flows, fresh 5-tuples per
/// pulse, so the burst also fights for new slots while it lasts.
fn pulse_wave(intensity: usize, window_secs: f64, rng: &mut Rng) -> Trace {
    let pulses = pulse_count(window_secs);
    let persistent_n = (intensity / 2).max(1);
    let churn_per_pulse = (intensity - persistent_n).div_ceil(pulses).max(1);

    // Fix the persistent bot 5-tuples up front: same flows, every pulse.
    let persistent: Vec<FiveTuple> = (0..persistent_n)
        .map(|_| {
            let src =
                SCENARIO_SRC_BASE + rng.gen_range(0..(persistent_n as u32).clamp(64, 1 << 14));
            let dst = SCENARIO_DST_BASE + rng.gen_range(0..4u32);
            let sport: u16 = rng.gen_range(32768..61000);
            FiveTuple::new(src, dst, sport, 80, PROTO_TCP)
        })
        .collect();

    let mut t = Trace::new();
    let period = PULSE_BURST_NS + PULSE_GAP_NS;
    for pulse in 0..pulses {
        let t0 = pulse as u64 * period;
        for five in &persistent {
            // A short in-burst volley: start jittered into the burst,
            // packets a few ms apart, always finished before the gap.
            let mut ts = t0 + rng.gen_range(0..PULSE_BURST_NS / 2);
            let n = rng.gen_range(4..=8u32);
            for i in 0..n {
                if i > 0 {
                    ts += rng.gen_range(1_000_000..6_000_000); // 1–6 ms
                }
                let mut flags = TcpFlags::default();
                if i == 0 {
                    flags.syn = true;
                } else {
                    flags.ack = true;
                }
                t.push(
                    Packet {
                        ts_ns: ts,
                        five: *five,
                        wire_len: rng.gen_range(60..=120u32) as u16,
                        ttl: 64,
                        flags,
                    },
                    true,
                );
            }
        }
        // Ephemeral churn: fresh 5-tuples this pulse only.
        for _ in 0..churn_per_pulse {
            let src = SCENARIO_SRC_BASE + 0x100 + rng.gen_range(0..1u32 << 14);
            let dst = SCENARIO_DST_BASE + rng.gen_range(0..4u32);
            let sport: u16 = rng.gen_range(32768..61000);
            let five = FiveTuple::new(src, dst, sport, 80, PROTO_TCP);
            let ts = t0 + rng.gen_range(0..PULSE_BURST_NS);
            let mut flags = TcpFlags::default();
            flags.syn = true;
            t.push(Packet { ts_ns: ts, five, wire_len: 60, ttl: 64, flags }, true);
        }
    }
    t.packets.sort_by_key(|p| p.ts_ns);
    // `sort_by_key` cannot carry the labels along; they are all `true`
    // here, so rebuilding them is exact.
    t.labels = vec![true; t.packets.len()];
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn traces_are_seed_deterministic() {
        for sc in ALL_SCENARIOS {
            let a = sc.trace(200, 12.0, &mut Rng::seed_from_u64(42));
            let b = sc.trace(200, 12.0, &mut Rng::seed_from_u64(42));
            assert_eq!(a.packets, b.packets, "{} not deterministic", sc.name());
            assert_eq!(a.labels, b.labels);
            let c = sc.trace(200, 12.0, &mut Rng::seed_from_u64(43));
            assert_ne!(a.packets, c.packets, "{} ignores its seed", sc.name());
        }
    }

    #[test]
    fn traces_are_sorted_and_all_malicious() {
        for sc in ALL_SCENARIOS {
            let t = sc.trace(150, 12.0, &mut Rng::seed_from_u64(7));
            assert!(!t.is_empty(), "{} empty", sc.name());
            assert!(t.packets.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns), "{}", sc.name());
            assert!(t.labels.iter().all(|&l| l), "{}", sc.name());
        }
    }

    #[test]
    fn scenario_pools_are_disjoint_from_attack_and_victim_pools() {
        for sc in ALL_SCENARIOS {
            let t = sc.trace(100, 12.0, &mut Rng::seed_from_u64(9));
            for p in &t.packets {
                for ip in [p.five.src_ip, p.five.dst_ip] {
                    assert!(
                        !(crate::attacks::BOT_IP_BASE..crate::attacks::BOT_IP_BASE + 0x10_0000)
                            .contains(&ip),
                        "{} reused the attack bot pool",
                        sc.name()
                    );
                    assert!(
                        !(crate::attacks::VICTIM_IP_BASE..crate::attacks::VICTIM_IP_BASE + 256)
                            .contains(&ip),
                        "{} reused the attack victim pool",
                        sc.name()
                    );
                }
            }
        }
    }

    #[test]
    fn pulse_wave_persistent_flows_straddle_the_idle_timeout() {
        let t = Scenario::PulseWave.trace(120, 12.0, &mut Rng::seed_from_u64(11));
        let mut per_flow: HashMap<_, Vec<u64>> = HashMap::new();
        for p in &t.packets {
            per_flow.entry(p.five.canonical()).or_default().push(p.ts_ns);
        }
        // Persistent flows appear in several pulses: their largest
        // inter-packet gap must exceed the 2 s default idle timeout (the
        // inter-pulse gap is 3 s), and there must be many of them.
        let straddlers = per_flow
            .values()
            .filter(|ts| ts.windows(2).any(|w| w[1] - w[0] > 2_000_000_000))
            .count();
        assert!(straddlers >= 40, "only {straddlers} flows straddle the timeout");
        // Every straddling gap is a full pulse gap, not a near miss.
        for ts in per_flow.values() {
            for w in ts.windows(2) {
                let gap = w[1] - w[0];
                assert!(
                    gap <= PULSE_BURST_NS || gap >= PULSE_GAP_NS,
                    "gap {gap} ns lands inside the timeout boundary band"
                );
            }
        }
    }

    #[test]
    fn slowloris_flows_are_long_lived_and_never_fin() {
        let t = Scenario::Slowloris.trace(60, 20.0, &mut Rng::seed_from_u64(13));
        assert!(t.packets.iter().all(|p| !p.flags.fin));
        let mut per_flow: HashMap<_, (u64, u64)> = HashMap::new();
        for p in &t.packets {
            let e = per_flow.entry(p.five.canonical()).or_insert((p.ts_ns, p.ts_ns));
            e.1 = p.ts_ns;
        }
        let mean_dur = per_flow.values().map(|(a, b)| (b - a) as f64 / 1e9).sum::<f64>()
            / per_flow.len() as f64;
        assert!(mean_dur > 5.0, "slowloris flows too short: mean {mean_dur:.2} s");
    }

    #[test]
    fn c2_beacons_are_spaced_past_the_idle_timeout() {
        let t = Scenario::C2Beacon.trace(40, 60.0, &mut Rng::seed_from_u64(17));
        let mut per_flow: HashMap<_, Vec<u64>> = HashMap::new();
        for p in &t.packets {
            per_flow.entry(p.five.canonical()).or_default().push(p.ts_ns);
        }
        let (mut gaps, mut over) = (0u64, 0u64);
        for ts in per_flow.values() {
            for w in ts.windows(2) {
                gaps += 1;
                if w[1] - w[0] > 2_000_000_000 {
                    over += 1;
                }
            }
        }
        assert!(gaps > 0);
        assert!(
            over as f64 / gaps as f64 > 0.95,
            "beacon cadence leaks under the timeout: {over}/{gaps}"
        );
    }

    #[test]
    fn names_are_unique_and_stable() {
        let names: Vec<_> = ALL_SCENARIOS.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["state_exhaustion", "pulse_wave", "slowloris", "c2_beacon"]);
    }
}
