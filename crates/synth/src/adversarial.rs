//! Black-box adversarial transforms (paper Tables 2 and 3).
//!
//! Three attacker strategies against a deployed detector:
//!
//! * **Low-rate** — the attacker throttles to 1/100 of the native rate,
//!   stretching inter-packet delays so rate features look benign.
//! * **Poisoning** — the attacker contaminates the *benign training set*
//!   with a small fraction (2 %, 10 %) of attack samples, hoping the
//!   detector learns them as normal.
//! * **Evasion by blending** — each attack flow is interleaved with
//!   benign-mimicking padding packets at a 1:2 or 1:4 attack:padding ratio,
//!   dragging every flow-level statistic toward the benign manifold.

use iguard_runtime::rng::Rng;
use iguard_runtime::Dataset;

use iguard_flow::packet::{Packet, TcpFlags};

use crate::profile::gauss;
use crate::trace::Trace;

/// Stretches a trace's inter-packet delays by `factor` (the paper's
/// "1/100 rate" uses `factor = 100`), preserving per-flow packet order.
///
/// Timestamps are re-spaced per flow: the k-th IPD of each flow is
/// multiplied by `factor`, so flow duration grows by ~`factor` while packet
/// counts and sizes are untouched.
pub fn low_rate(trace: &Trace, factor: f64) -> Trace {
    assert!(factor >= 1.0, "rate dilution factor must be >= 1");
    use std::collections::HashMap;
    let mut last_orig: HashMap<_, u64> = HashMap::new();
    let mut last_new: HashMap<_, u64> = HashMap::new();
    let mut out = Trace::new();
    for (p, &l) in trace.packets.iter().zip(&trace.labels) {
        let key = p.five.canonical();
        let new_ts = match (last_orig.get(&key), last_new.get(&key)) {
            (Some(&lo), Some(&ln)) => {
                let ipd = p.ts_ns.saturating_sub(lo) as f64 * factor;
                ln + ipd as u64
            }
            _ => p.ts_ns,
        };
        last_orig.insert(key, p.ts_ns);
        last_new.insert(key, new_ts);
        let mut q = *p;
        q.ts_ns = new_ts;
        out.push(q, l);
    }
    // Re-sort: per-flow stretching can reorder packets across flows.
    let mut zipped: Vec<(Packet, bool)> = out.packets.into_iter().zip(out.labels).collect();
    zipped.sort_by_key(|(p, _)| p.ts_ns);
    let mut sorted = Trace::new();
    for (p, l) in zipped {
        sorted.push(p, l);
    }
    sorted
}

/// Poisons a benign training feature set with `fraction` of attack samples
/// (paper Table 2: Mirai 2 % and 10 %). The poison samples keep their
/// malicious ground truth internally but are *presented as benign* to the
/// trainer — the caller trains on `features` as if all were normal.
pub fn poison_training_set(
    benign_features: &Dataset,
    attack_features: &Dataset,
    fraction: f64,
    rng: &mut Rng,
) -> Dataset {
    assert!((0.0..1.0).contains(&fraction), "poison fraction in [0,1)");
    assert!(!benign_features.is_empty(), "need benign samples");
    let n_poison = ((benign_features.rows() as f64 * fraction) / (1.0 - fraction)).round() as usize;
    let mut out = benign_features.clone();
    if attack_features.is_empty() {
        return out;
    }
    for _ in 0..n_poison {
        let idx = rng.gen_range(0..attack_features.rows());
        out.push_row(attack_features.row(idx));
    }
    out
}

/// Blends each attack flow with benign-mimicking padding packets at
/// `attack : padding = 1 : ratio` (paper Table 3 uses 1:2 and 1:4). Padding
/// packets copy the flow's 5-tuple but draw size and spacing from a
/// benign-looking envelope, pulling the flow statistics toward the benign
/// manifold. Padding packets inherit the *malicious* ground truth: they
/// belong to the attack flow.
pub fn evasion_blend(trace: &Trace, ratio: u32, rng: &mut Rng) -> Trace {
    assert!(ratio >= 1, "blend ratio must be >= 1");
    let mut out = Trace::new();
    for (p, &l) in trace.packets.iter().zip(&trace.labels) {
        out.push(*p, l);
        if !l {
            continue; // only attack packets get padding
        }
        for k in 0..ratio {
            let mut pad = *p;
            // Benign-envelope padding: telemetry/sync-like sizes and jitter.
            pad.wire_len = gauss(rng, 420.0, 260.0).clamp(60.0, 1400.0) as u16;
            pad.ts_ns =
                p.ts_ns + (k as u64 + 1) * gauss(rng, 12.0, 6.0).max(0.5) as u64 * 1_000_000;
            pad.flags = TcpFlags { ack: pad.flags.syn || pad.flags.ack, ..TcpFlags::default() };
            out.push(pad, true);
        }
    }
    let mut zipped: Vec<(Packet, bool)> = out.packets.into_iter().zip(out.labels).collect();
    zipped.sort_by_key(|(p, _)| p.ts_ns);
    let mut sorted = Trace::new();
    for (p, l) in zipped {
        sorted.push(p, l);
    }
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks::Attack;
    use crate::trace::{extract_flows, ExtractConfig};
    use iguard_runtime::rng::Rng;

    #[test]
    fn low_rate_stretches_duration() {
        let mut rng = Rng::seed_from_u64(1);
        let t = Attack::UdpDdos.trace(10, 1.0, &mut rng);
        let slow = low_rate(&t, 100.0);
        assert_eq!(slow.len(), t.len());
        let cfg = ExtractConfig { pkt_threshold: 1_000_000, ..Default::default() };
        let orig = extract_flows(&t, &cfg);
        let slowed = extract_flows(
            &slow,
            &ExtractConfig {
                pkt_threshold: 1_000_000,
                timeout_ns: u64::MAX / 2,
                ..Default::default()
            },
        );
        let dur = |fs: &crate::trace::LabeledFlows| {
            fs.features.iter_rows().map(|f| f[12] as f64).sum::<f64>() / fs.features.rows() as f64
        };
        assert!(
            dur(&slowed) > dur(&orig) * 50.0,
            "mean duration {} not ~100x of {}",
            dur(&slowed),
            dur(&orig)
        );
    }

    #[test]
    fn low_rate_identity_when_factor_one() {
        let mut rng = Rng::seed_from_u64(2);
        let t = Attack::Mirai.trace(5, 1.0, &mut rng);
        let same = low_rate(&t, 1.0);
        assert_eq!(same.packets, t.packets);
    }

    #[test]
    fn poison_fraction_is_respected() {
        let benign = Dataset::from_rows(&vec![vec![0.0f32]; 900]);
        let attack = Dataset::from_rows(&vec![vec![1.0f32]; 500]);
        let mut rng = Rng::seed_from_u64(3);
        let poisoned = poison_training_set(&benign, &attack, 0.10, &mut rng);
        let injected = poisoned.rows() - 900;
        // 10 % of final set: 900 / 0.9 = 1000 -> 100 poison.
        assert_eq!(injected, 100);
        assert!(poisoned.iter_rows().skip(900).all(|f| f[0] == 1.0));
    }

    #[test]
    fn poison_zero_is_identity() {
        let benign = Dataset::from_rows(&vec![vec![0.0f32]; 10]);
        let attack = Dataset::from_rows(&vec![vec![1.0f32]; 10]);
        let mut rng = Rng::seed_from_u64(4);
        assert_eq!(poison_training_set(&benign, &attack, 0.0, &mut rng).rows(), 10);
    }

    #[test]
    fn evasion_multiplies_attack_packets() {
        let mut rng = Rng::seed_from_u64(5);
        let t = Attack::TcpDdos.trace(5, 1.0, &mut rng);
        let blended = evasion_blend(&t, 2, &mut rng);
        assert_eq!(blended.len(), t.len() * 3); // 1 original + 2 padding
        assert!(blended.labels.iter().all(|&l| l));
        assert!(blended.packets.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn evasion_moves_mean_size_toward_benign() {
        let mut rng = Rng::seed_from_u64(6);
        let t = Attack::TcpDdos.trace(30, 2.0, &mut rng); // 62-byte SYNs
        let blended = evasion_blend(&t, 4, &mut rng);
        let cfg = ExtractConfig::default();
        let orig = extract_flows(&t, &cfg);
        let ble = extract_flows(&blended, &cfg);
        let mean_size = |fs: &crate::trace::LabeledFlows| {
            fs.features.iter_rows().map(|f| f[2] as f64).sum::<f64>() / fs.features.rows() as f64
        };
        assert!(mean_size(&ble) > mean_size(&orig) + 100.0);
    }

    #[test]
    fn evasion_leaves_benign_packets_alone() {
        let mut rng = Rng::seed_from_u64(7);
        let t = crate::benign::benign_trace(20, 1.0, &mut rng);
        let blended = evasion_blend(&t, 4, &mut rng);
        assert_eq!(blended.len(), t.len());
    }
}
